"""The static oracle, pinned bit for bit.

For the seven built-in workloads and a small generated corpus
(``CorpusSpec(seed=0, count=12)``) this stores two md5 digests:

* ``summary`` -- ``json.dumps(dataclasses.asdict(analyze_module(m)),
  sort_keys=True)``, with ``m`` the ``train`` module after
  ``cleanup_module`` (the form the static oracle analyzes);
* ``estimates`` -- every ``StaticOracle.estimate`` result (cycles,
  instructions, code size and the sorted components) at the same
  ``POINTS`` seeded ``full_space()`` points.

Floats go through ``json.dumps``, whose ``repr`` round-trips exactly,
so a change in any bit of a summary or an estimate moves a digest.  A
change that is meant to move one regenerates the file with::

    PYTHONPATH=src python -m tests.test_static_golden

and says in CHANGES.md which digests moved and why.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis.static.analyses import analyze_module
from repro.analysis.static.oracle import StaticOracle
from repro.harness.configs import split_point
from repro.opt.cleanup import cleanup_module
from repro.space import full_space
from repro.workgen import CorpusSpec, generate_corpus
from repro.workloads import get_workload, workload_names

DATA = Path(__file__).parent / "data" / "static_golden.json"

CORPUS = CorpusSpec(seed=0, count=12)
POINTS = 20
POINT_SEED = 0


def golden_workloads() -> List[str]:
    return workload_names() + [p.name for p in generate_corpus(CORPUS)]


def _md5(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.md5(text.encode(), usedforsecurity=False).hexdigest()


def summary_digest(workload: str) -> str:
    module = copy.deepcopy(get_workload(workload).module("train"))
    cleanup_module(module)
    return _md5(dataclasses.asdict(analyze_module(module)))


def estimates_digest(workload: str) -> str:
    rng = np.random.default_rng(POINT_SEED)
    points = full_space().random_points(POINTS, rng)
    oracle = StaticOracle()
    rows = []
    for point in points:
        est = oracle.estimate(workload, *split_point(point))
        rows.append(
            [
                est.cycles,
                est.instructions,
                est.code_size,
                sorted(est.components.items()),
            ]
        )
    return _md5(rows)


def digests(workload: str) -> Dict[str, str]:
    return {
        "summary": summary_digest(workload),
        "estimates": estimates_digest(workload),
    }


def test_golden_covers_every_workload():
    assert sorted(json.loads(DATA.read_text())) == sorted(golden_workloads())


# Parametrized from the committed file, so collecting the module
# generates no corpus.
@pytest.mark.parametrize("workload", sorted(json.loads(DATA.read_text())))
def test_static_oracle_matches_golden(workload):
    expected = json.loads(DATA.read_text())[workload]
    assert digests(workload) == expected


if __name__ == "__main__":
    import os

    os.environ.setdefault("REPRO_LEDGER", "off")
    os.environ.setdefault("REPRO_CACHE_DIR", "off")
    golden = {name: digests(name) for name in golden_workloads()}
    DATA.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
