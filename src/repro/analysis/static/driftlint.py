"""Drift lint: cross-check static claims against measured timings.

Two families of claims are checked against a golden measurement fixture
(``tests/data/golden_measure_pr8.json`` in CI -- any list of
``{workload, label, point, cycles}`` records works):

* **Estimate drift** -- per workload, the static cost model's estimates
  must rank the measured design points correctly (Spearman rank
  correlation at least ``min_corr``).  Absolute scale is not checked:
  the static estimate is an analytical bound composition, useful for
  ordering and screening, not a cycle-accurate prediction.

* **Remark-claim drift** -- optimization remarks carry expected-benefit
  claims.  For every measured pair of points that differ only in their
  optimization level (``O0/typical`` vs ``O2/typical``, ...), the
  remark stream of the higher level is collected; if the passes claim
  positive benefit but measurement shows the higher level *slower*
  (beyond ``tol``), every claiming pass receives a refutation vote.  A
  pass fails the lint when a majority of its votes are refutations --
  i.e. it *systematically* claims wins that measurement refutes --
  never for a single unlucky pairing (optimizations legitimately hurt
  on some microarchitectures; that interaction is the paper's whole
  point, so only systematic bias is a lint failure).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.static import remarks
from repro.analysis.static.oracle import StaticOracle, default_static_oracle
from repro.harness.configs import split_point

#: Minimum per-workload Spearman correlation of static estimates vs
#: measured cycles (workloads with fewer than 3 golden points are
#: skipped -- rank correlation over 2 points is a coin flip).
MIN_CORR = 0.5

#: A higher optimization level must be at least this factor slower than
#: the lower one before the pair counts as a refutation.
TOL = 1.05


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (ties get average ranks)."""
    n = len(xs)
    if n < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


@dataclass
class DriftReport:
    """Outcome of one drift-lint run."""

    #: workload -> Spearman(static estimate, measured cycles).
    correlations: Dict[str, float] = field(default_factory=dict)
    #: pass -> (refuted votes, total votes) from level-pair checks.
    votes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    findings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "correlations": {
                k: round(v, 4) for k, v in sorted(self.correlations.items())
            },
            "votes": {
                k: {"refuted": r, "total": t}
                for k, (r, t) in sorted(self.votes.items())
            },
            "findings": list(self.findings),
        }


def _load_golden(path: Union[str, Path]) -> List[dict]:
    records = json.loads(Path(path).read_text())
    if not isinstance(records, list):
        raise ValueError(f"golden file {path} must hold a list of records")
    return records


def _claiming_passes(workload: str, point: Mapping[str, float]) -> Dict[str, float]:
    """pass -> total claimed benefit from one remark-collected compile."""
    from repro.codegen import compile_module
    from repro.workloads import get_workload

    compiler, microarch = split_point(point)
    module = copy.deepcopy(get_workload(workload).module("train"))
    with remarks.collecting() as rc:
        compile_module(module, compiler, issue_width=microarch.issue_width)
    claims: Dict[str, float] = {}
    for r in rc.remarks:
        if r.action == "fired" and r.benefit > 0:
            claims[r.pass_name] = claims.get(r.pass_name, 0.0) + r.benefit
    return claims


def drift_lint(
    golden_path: Union[str, Path],
    oracle: Optional[StaticOracle] = None,
    min_corr: float = MIN_CORR,
    tol: float = TOL,
    input_name: str = "train",
) -> DriftReport:
    """Run both drift checks against a golden measurement file."""
    oracle = oracle or default_static_oracle()
    records = _load_golden(golden_path)
    report = DriftReport()

    # -- estimate drift: per-workload rank correlation -----------------
    by_workload: Dict[str, List[dict]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in sorted(by_workload.items()):
        if len(recs) < 3:
            continue
        measured = [float(r["cycles"]) for r in recs]
        compilers, microarchs = zip(*(split_point(r["point"]) for r in recs))
        estimated = [
            est.cycles
            for est in oracle.estimate_many(
                workload, compilers, microarchs, input_name
            )
        ]
        corr = spearman(estimated, measured)
        report.correlations[workload] = corr
        if corr < min_corr:
            report.findings.append(
                f"{workload}: static estimate rank correlation "
                f"{corr:.3f} < {min_corr} over {len(recs)} golden points"
            )

    # -- remark-claim drift: O-level pairs, majority voting ------------
    refuted: Dict[str, int] = {}
    total: Dict[str, int] = {}
    for workload, recs in sorted(by_workload.items()):
        by_label = {r["label"]: r for r in recs}
        for label, rec in sorted(by_label.items()):
            if "/" not in label:
                continue
            level, machine = label.split("/", 1)
            if level == "O0":
                continue
            base = by_label.get(f"O0/{machine}")
            if base is None:
                continue
            claims = _claiming_passes(workload, rec["point"])
            if not claims:
                continue
            is_refuted = float(rec["cycles"]) > float(base["cycles"]) * tol
            for pass_name in claims:
                total[pass_name] = total.get(pass_name, 0) + 1
                if is_refuted:
                    refuted[pass_name] = refuted.get(pass_name, 0) + 1
    for pass_name, t in sorted(total.items()):
        r = refuted.get(pass_name, 0)
        report.votes[pass_name] = (r, t)
        if t >= 2 and r * 2 > t:
            report.findings.append(
                f"pass {pass_name}: claimed wins refuted by measurement in "
                f"{r}/{t} golden level pairs"
            )
    return report
