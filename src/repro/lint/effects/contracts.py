"""Contract evaluation: RL006/RL007/RL008 over the converged analysis.

Contract roots come from two places:

* every function carrying a ``@cached_stage(...)`` decorator is
  automatically a *deterministic* root (RL006) — the content-addressed
  store assumes it is a pure function of its fingerprinted inputs;
* ``[tool.repro-lint]`` lists additional roots by
  ``relpath::qualname`` — ``effects-deterministic`` for RL006 (the memo
  wrapper itself) and ``effects-replay-safe`` for RL007 (process-worker
  entry points, which additionally must not write shared state).

A config entry naming a file outside the analyzed set is skipped (so
fixture projects run with the repo defaults), but an entry naming a
missing *function* in an analyzed file raises: that is a stale config.

RL008 audits every ``@declares_effects`` annotation: the function's
observed effects (its own intrinsics plus everything its callees
export, declared or not) must stay within the declaration — carve-outs
are audited claims, not opt-outs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.config import LintConfig
from repro.lint.effects.callgraph import FunctionId, ProjectIndex
from repro.lint.effects.inference import EffectAnalysis
from repro.lint.effects.model import (
    DETERMINISTIC_FORBIDDEN,
    EFFECT_RULES,
    REPLAY_SAFE_FORBIDDEN,
    mask_names,
)
from repro.lint.rules.base import Finding, Severity

__all__ = ["EffectFinding", "evaluate_contracts", "contract_roots"]


@dataclass
class EffectFinding:
    """A contract violation plus its call-graph explanation chain."""

    finding: Finding
    chain: Tuple[str, ...]


def contract_roots(
    index: ProjectIndex, config: LintConfig
) -> Tuple[List[FunctionId], List[FunctionId]]:
    """(deterministic roots, replay-safe roots), sorted and deduped."""
    deterministic: Set[FunctionId] = set()
    for fid, fn in index.functions():
        if fn.cached_stage:
            deterministic.add(fid)
    deterministic.update(
        _config_roots(index, config.effects_deterministic, "effects-deterministic")
    )
    replay_safe = set(
        _config_roots(index, config.effects_replay_safe, "effects-replay-safe")
    )
    return sorted(deterministic), sorted(replay_safe)


def _config_roots(
    index: ProjectIndex, specs: Sequence[str], key: str
) -> List[FunctionId]:
    roots: List[FunctionId] = []
    for spec in specs:
        relpath, sep, qualname = spec.partition("::")
        if not sep or not qualname:
            raise LintError(
                f"[tool.repro-lint] {key}: entry {spec!r} must be "
                "'relpath::qualname'"
            )
        module = index.by_relpath.get(relpath)
        if module is None:
            continue  # file not part of this run (fixture projects)
        if qualname not in module.functions:
            raise LintError(
                f"[tool.repro-lint] {key}: {spec!r} names no function in "
                f"{relpath} (stale entry?)"
            )
        roots.append((relpath, qualname))
    return roots


def evaluate_contracts(
    index: ProjectIndex,
    analysis: EffectAnalysis,
    config: LintConfig,
) -> Tuple[List[EffectFinding], Dict[str, int]]:
    """All effect-contract findings plus per-contract counts for CI."""
    det_roots, replay_roots = contract_roots(index, config)
    findings: List[EffectFinding] = []

    def emit(code: str, fid: FunctionId, effect: str, message: str) -> None:
        if not config.rule_enabled(code):
            return
        fn = index.get(fid)
        assert fn is not None
        default = Severity(EFFECT_RULES[code][1])
        findings.append(
            EffectFinding(
                finding=Finding(
                    code=code,
                    severity=config.severity_for(code, default),
                    relpath=fid[0],
                    line=fn.lineno,
                    col=0,
                    message=message,
                    source_line=f"def {fid[1].rsplit('.', 1)[-1]}",
                ),
                chain=tuple(analysis.explain(fid, effect)),
            )
        )

    for fid in det_roots:
        violation = (
            analysis.raw_und.get(fid, 0)
            & DETERMINISTIC_FORBIDDEN
            & ~analysis.declared_mask.get(fid, 0)
        )
        for effect in mask_names(violation):
            emit(
                "RL006",
                fid,
                effect,
                f"cached stage {fid[1]!r} can reach effect '{effect}' — "
                "memoized stages must be deterministic in their "
                "fingerprinted inputs (declare a carve-out with "
                "@declares_effects or remove the hazard)",
            )

    for fid in replay_roots:
        violation = (
            analysis.raw_und.get(fid, 0)
            & REPLAY_SAFE_FORBIDDEN
            & ~analysis.declared_mask.get(fid, 0)
        )
        for effect in mask_names(violation):
            emit(
                "RL007",
                fid,
                effect,
                f"process worker {fid[1]!r} can reach effect '{effect}' — "
                "process workers must be replay-safe (re-running a job "
                "must be undetectable, so no nondeterminism or shared "
                "writes)",
            )

    annotated = 0
    for fid, fn in sorted(index.functions()):
        if fn.declared is None:
            continue
        annotated += 1
        escaped = analysis.observed(fid) & ~analysis.declared_mask[fid]
        for effect in mask_names(escaped):
            emit(
                "RL008",
                fid,
                effect,
                f"{fid[1]!r} declares effects {sorted(fn.declared)} but can "
                f"also reach '{effect}' — the @declares_effects annotation "
                "is stale; extend it or remove the new hazard",
            )

    findings.sort(
        key=lambda ef: (
            ef.finding.relpath,
            ef.finding.line,
            ef.finding.code,
            ef.finding.message,
        )
    )
    counts = {
        "deterministic_roots": len(det_roots),
        "replay_safe_roots": len(replay_roots),
        "annotated_functions": annotated,
        "RL006": sum(1 for ef in findings if ef.finding.code == "RL006"),
        "RL007": sum(1 for ef in findings if ef.finding.code == "RL007"),
        "RL008": sum(1 for ef in findings if ef.finding.code == "RL008"),
    }
    return findings, counts
