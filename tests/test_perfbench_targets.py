"""The names the repository benchmark wraps must exist and keep their shape.

``perfbench/tracer.py`` replaces functions of this package by name, and
``perfbench/run.py`` looks every name up in each run, traced or not: a
renamed or deleted target fails the whole benchmark.  This is the first
check of ``python3 perfbench/run.py --selftest``, in a fraction of a
second instead of minutes.  The tracer is loaded from its file and only
read.

Four targets are inert leftovers.  Three are of the removed unit-level
timing memo: ``OooTimingModel.replay_window`` (an alias of ``warm``),
``TimingMemo.get_unit`` (returns None) and ``TimingMemo.put_unit``
(does nothing).  The fourth, ``repro.sim.smarts.packed_for`` (an alias
of ``PackedTrace.from_pairs`` that nothing calls), is of the run memo's
trace digest, which left the simulator with the memo.  They go once a
benchmark-only change drops their four ``PATCHES`` entries from
``perfbench/tracer.py``; this test then stops asking for them.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(tracer, owner: str, attr: str):
    obj = tracer._resolve(owner)
    return obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)


def test_tracer_wraps_every_target_and_restores_it(tracer):
    assert not tracer.wrapped_targets()
    t = tracer.Tracer()
    try:
        t.__enter__()
        assert len(tracer.wrapped_targets()) == len(tracer.PATCHES)
    finally:
        t.__exit__(None, None, None)
    assert t.restored_ok
    assert not tracer.wrapped_targets()


def test_hooks_read_the_right_positional_arguments(tracer):
    """``_window`` reads ``args[2]``/``args[3]`` as ``start``/``end`` and
    ``_fit`` reads ``args[1]`` as ``x`` (``args[0]`` is ``self``)."""
    checked = set()
    for _, owner, attr, hook in tracer.PATCHES:
        params = list(inspect.signature(_target(tracer, owner, attr)).parameters)
        if hook is tracer._window:
            assert params[2:4] == ["start", "end"], (owner, attr, params)
        elif hook is tracer._fit:
            assert params[1] == "x", (owner, attr, params)
        else:
            continue
        checked.add(attr)
    assert {"simulate_window", "warm", "fit"} <= checked
