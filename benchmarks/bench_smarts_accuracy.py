"""Section 5 methodology check: SMARTS sampling accuracy.

Paper claim: the chosen sampling parameters give <1% error (99.7%
confidence) in estimating execution time, cutting simulation time by
orders of magnitude.  The paper tunes its sampling until the error bound
holds; here two committed grids of 63 runs each do that job for the one
interval :data:`repro.sim.smarts.SMARTS_INTERVAL`
(:mod:`repro.harness.experiments.sampling`):

* ``table5`` -- the O2 binaries on CONSTRAINED, TYPICAL and AGGRESSIVE;
* ``seed7`` -- three ``full_space().random_point`` draws per program
  from ``np.random.default_rng(7)``.

Each point is timed exhaustively once and sampled at offsets 0, 1 and 2.
Per grid the scenario records the mean and max |error| in percent and
the fraction of runs whose reported 99.7% half-width covers the
exhaustive cycles.  Ungated, it records the Table-5 grid at interval 1,
where every unit is timed and the error is the cold-pipeline bias of
the detailed warm-up alone.

The four error metrics are gated against the committed baseline.
Floors (checked after ``BENCH_smarts_accuracy.json`` is written):

* ``<grid>_mean_ratio`` and ``<grid>_max_ratio`` -- the old sampler's
  mean and max |error| on the same grid (:data:`OLD_SAMPLER`) over this
  one's, at least 1: the sampler is no less accurate than the one it
  replaced;
* ``<grid>_covered_frac`` -- at least :data:`COVERED_FLOOR`.

The errors are deterministic: they do not depend on the host.  The run
takes about 35 s on a 2-vCPU VM.
"""

from repro.harness.experiments.sampling import (
    random_grid,
    run_smarts_accuracy,
    table5_grid,
)
from repro.obs import BenchScenario
from repro.sim.smarts import SMARTS_INTERVAL

#: Mean and max |error| in percent of the sampler this one replaced (one
#: unit in 3 sampled from unit 0 on, unit 0 weighted 3 times, the mean
#: unit CPI times the instruction count) on the same 63 runs per grid.
OLD_SAMPLER = {
    "table5": (1.7326401084124599, 6.479648669065232),
    "seed7": (2.2132249591574578, 22.6298737164519),
}

#: Smallest fraction of a grid's runs whose 99.7% half-width covers the
#: exhaustive cycles.
COVERED_FLOOR = 0.9


def _summary(rows):
    errors = [abs(r.error) * 100.0 for r in rows]
    return (
        sum(errors) / len(errors),
        max(errors),
        sum(r.covered for r in rows) / len(rows),
    )


def _bench() -> dict:
    out = {"interval": float(SMARTS_INTERVAL)}
    for name, grid, intervals in (
        ("table5", table5_grid(), (SMARTS_INTERVAL, 1)),
        ("seed7", random_grid(7), (SMARTS_INTERVAL,)),
    ):
        rows = run_smarts_accuracy(grid, intervals)
        mean, worst, covered = _summary(rows[SMARTS_INTERVAL])
        old_mean, old_max = OLD_SAMPLER[name]
        out[f"{name}_mean_err_pct"] = mean
        out[f"{name}_max_err_pct"] = worst
        out[f"{name}_covered_frac"] = covered
        out[f"{name}_mean_ratio"] = old_mean / mean
        out[f"{name}_max_ratio"] = old_max / worst
        if 1 in rows:
            mean, worst, _ = _summary(rows[1])
            out[f"{name}_interval1_mean_err_pct"] = mean
            out[f"{name}_interval1_max_err_pct"] = worst
    return out


BENCH_SCENARIO = BenchScenario(
    name="smarts_accuracy",
    description="SMARTS error against the exhaustive simulator on two grids",
    run=_bench,
    gates={f"{g}_{m}_err_pct": "lower" for g in OLD_SAMPLER for m in ("mean", "max")},
    floors={
        **{f"{g}_{m}_ratio": 1.0 for g in OLD_SAMPLER for m in ("mean", "max")},
        **{f"{g}_covered_frac": COVERED_FLOOR for g in OLD_SAMPLER},
    },
)
