"""Static cost & feature analysis over the IR (the *performance* half
of the analysis layer; :mod:`repro.analysis` proper is the correctness
half).

* :mod:`repro.analysis.static.remarks` -- the optimization-remark
  subsystem: every ``repro.opt`` pass (and the backend scheduler)
  reports fired/declined decisions with locations, reasons and
  expected-benefit estimates into scoped collectors, serialized as
  schema-versioned JSONL.
* :mod:`repro.analysis.static.analyses` -- seven plain analysis
  functions (CFG, loop forest, trip counts, block frequencies,
  instruction mix/ILP, memory streams + dependence distances + alias
  classes, branch predictability) that :func:`analyze_module` calls in
  order on every function and assembles into a :class:`ModuleSummary`.
* :mod:`repro.analysis.static.costmodel` -- the analytical cost model
  mapping (summary, pass features, compiler config, microarch config)
  to a cycle estimate in microseconds per point.
* :mod:`repro.analysis.static.oracle` -- the ``--oracle static`` fast
  path: per-workload cached summaries + remark-harvested features.
* :mod:`repro.analysis.static.driftlint` -- cross-checks remark benefit
  claims and static estimates against measured timings.

Only :mod:`remarks` is cheap enough for the default compile path to
import (stdlib-only; one predicate per remark site when no collector is
installed).  Everything else loads on first attribute access (PEP 562),
mirroring the parent package.
"""

from repro.analysis.static import remarks

_LAZY = {
    "ModuleSummary": "repro.analysis.static.analyses",
    "analyze_module": "repro.analysis.static.analyses",
    "CostBreakdown": "repro.analysis.static.costmodel",
    "PassFeatures": "repro.analysis.static.costmodel",
    "StaticCostModel": "repro.analysis.static.costmodel",
    "StaticOracle": "repro.analysis.static.oracle",
    "harvest_features": "repro.analysis.static.oracle",
    "DriftReport": "repro.analysis.static.driftlint",
    "drift_lint": "repro.analysis.static.driftlint",
}

__all__ = ["remarks", *sorted(_LAZY)]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
