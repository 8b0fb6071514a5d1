"""Ablation: cache replacement policy (LRU vs SRRIP vs BRRIP vs DRRIP).

The paper's simulator implements the dueling BRRIP/SRRIP (DRRIP) policy
of its Xeon's L3.  This ablation quantifies how much the policy choice
moves the headline miss counts — DRRIP should track the better of its
two constituent policies on every workload.
"""

from repro.core import format_table
from repro.sim import SimulationConfig, simulate_spmv


def test_cache_policy_ablation(benchmark, shared_workloads):
    def run():
        rows = []
        results = {}
        for dataset in ("twtr-mini", "sk-mini"):
            graph = shared_workloads.graph(dataset)
            row = [dataset]
            for policy in ("lru", "srrip", "brrip", "drrip"):
                config = SimulationConfig.scaled_for(graph, policy=policy)
                misses = simulate_spmv(graph, config).l3_misses
                results[(dataset, policy)] = misses
                row.append(misses / 1e3)
            rows.append(row)
        return rows, results

    rows, results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["dataset", "LRU (K)", "SRRIP (K)", "BRRIP (K)", "DRRIP (K)"],
            rows,
            title="L3 misses by replacement policy",
            precision=1,
        )
    )
    for dataset in ("twtr-mini", "sk-mini"):
        drrip = results[(dataset, "drrip")]
        best_static = min(results[(dataset, "srrip")], results[(dataset, "brrip")])
        # set dueling should land within 10% of the better static policy
        assert drrip <= best_static * 1.10, (dataset, drrip, best_static)
