"""Suite-wide defaults.

The provenance ledger is opt-in under pytest: without this, every test
that saves a registry model or starts a ``PredictionServer`` would
append events to the working copy's ``.repro_cache/ledger.jsonl``.
Tests that exercise the ledger install their own tmp-path ledger via
``repro.obs.ledger.set_default_ledger``.

The persistent cache directory is off for the same reason: the CLI's
exit-time metrics flush would otherwise rewrite the working copy's
``.repro_cache/metrics.json``.  Tests that exercise a cache directory
set ``REPRO_CACHE_DIR`` to a tmp path themselves.
"""

import os

os.environ.setdefault("REPRO_LEDGER", "off")
os.environ.setdefault("REPRO_CACHE_DIR", "off")
