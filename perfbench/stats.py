"""Summary statistics and the side-by-side compare mode."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path: Path) -> Dict[str, List[dict]]:
    """Records written by ``run.py --out``, grouped by workload in file order."""
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            grouped[rec["workload"]].append(rec)
    return grouped


def _better(spec: dict) -> str:
    return spec.get("better", "lower")


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(a_path: Path, b_path: Path, specs: Dict[str, dict]) -> str:
    """Side-by-side table of two result sets, per workload and metric.

    Runs are paired in file order within a workload.  ``win`` is the
    share of pairs in which B is better than A (ties count for neither).
    A gain is claimed only when B wins at least nine tenths of the pairs
    and the medians differ by more than A's own interquartile range.
    """
    a_all, b_all = load_results(a_path), load_results(b_path)
    lines = []
    for workload in sorted(set(a_all) | set(b_all)):
        a_runs, b_runs = a_all.get(workload, []), b_all.get(workload, [])
        lines.append(f"== {workload}  (A: {len(a_runs)} runs, B: {len(b_runs)} runs)")
        lines.append(
            f"  {'metric':32s} {'unit':6s} {'A median [q1, q3]':>30s}  "
            f"{'B median [q1, q3]':>30s}  {'delta':>7s} {'win':>5s}  verdict"
        )
        names: List[str] = []
        for rec in a_runs + b_runs:
            for name in rec["result"]["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in a_runs if name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs if name in r["result"]["metrics"]]
            if not a or not b:
                continue
            unit = (a_runs + b_runs)[0]["result"]["metrics"].get(name, {}).get("unit", "")
            spec = specs.get(name, {})
            higher = _better(spec) == "higher"
            aq, bq = quartiles(a), quartiles(b)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if (y > x if higher else y < x))
            win = wins / len(pairs)
            delta = (bq[1] - aq[1]) / aq[1] if aq[1] else 0.0
            verdict = ""
            if abs(bq[1] - aq[1]) > aq[2] - aq[0] and win >= 0.9:
                verdict = "B better"
            elif "bound" in spec and aq[1]:
                worse = (aq[1] - bq[1]) / aq[1] if higher else (bq[1] - aq[1]) / aq[1]
                if worse > spec["bound"]:
                    verdict = f"B worse than bound {spec['bound']:g}"
                elif (aq[2] - aq[0]) / aq[1] > spec["bound"]:
                    verdict = "unresolved (A spread > bound)"
            lines.append(
                f"  {name:32s} {unit:6s} {_fmt(aq):>30s}  {_fmt(bq):>30s}  "
                f"{delta:+7.2%} {win:5.2f}  {verdict}"
            )
    return "\n".join(lines)
