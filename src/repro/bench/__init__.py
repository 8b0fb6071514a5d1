"""Experiment harness regenerating every table and figure of the paper."""

from repro.bench.harness import experiment_ids, run_experiment, run_experiments

__all__ = ["experiment_ids", "run_experiment", "run_experiments"]
