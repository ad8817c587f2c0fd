"""How an on-disk store is located, locked, read and replaced.

Every persistent store in the package goes through this module: the
measurement cache (``measurements.json``), the timing memo
(``sim_memo.json``), cross-run metrics (``metrics.json``), registry name
pointers (``names/<name>.json``), the artifact store, ledger compaction
and ``BENCH_*.json`` results.  Each store keeps its own file name,
content, version field and merge rule; this module owns the four things
they share:

* :func:`cache_dir` -- the ``REPRO_CACHE_DIR`` lookup (default
  ``.repro_cache``; ``0``/``off``/``none`` or empty disables
  persistence);
* :func:`locked` -- an exclusive ``flock`` on the store's sibling
  ``.lock`` file, which serializes writers across processes (on
  platforms without ``fcntl`` it is a no-op, and the atomic replace
  alone keeps every file whole);
* :func:`write_atomic` -- a temp file in the same directory, then
  ``os.replace``: a reader, or a writer that crashes mid-write, leaves
  the old file or the new one, never part of one.  Leftover temp files
  end in ``.tmp`` and are never read;
* :func:`update_json` -- lock, read, merge, replace.

A store file that exists but does not parse as a JSON object is never
read as empty and then overwritten: :func:`update_json` moves it aside
to a uniquely named ``<file>.corrupt-*`` and counts it in the
``store.quarantined`` counter before writing the merge of nothing.  A
file that parses is the store's to judge: one with another version
field is simply replaced.

:mod:`repro.obs` persists through this module, so it imports nothing
from the package at module level.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterator, Optional, Union

try:
    import fcntl
except ImportError:  # non-POSIX
    fcntl = None

PathLike = Union[str, "os.PathLike[str]"]


def cache_dir() -> Optional[Path]:
    """The persistent cache directory, or None when persistence is off."""
    raw = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    if raw.lower() in ("0", "off", "none", ""):
        return None
    return Path(raw)


@contextlib.contextmanager
def locked(path: PathLike) -> Iterator[None]:
    """Hold the cross-process write lock of the store at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:
        yield
        return
    with open(path.with_suffix(".lock"), "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        yield  # closing the file releases the lock


def write_atomic(
    path: PathLike, write: Callable[[IO], Any], binary: bool = False
) -> None:
    """Replace ``path`` with what ``write`` writes to a fresh file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    # Exclusive create like mkstemp, but with the umask's permissions
    # rather than mkstemp's 0600.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb" if binary else "w") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(
    path: PathLike, obj: Any, newline: bool = False, **dump_kwargs: Any
) -> None:
    """Atomically replace ``path`` with ``json.dump(obj, **dump_kwargs)``
    (plus a trailing newline when ``newline``)."""

    def write(f: IO) -> None:
        json.dump(obj, f, **dump_kwargs)
        if newline:
            f.write("\n")

    write_atomic(path, write)


def _parse_object(data: bytes) -> Optional[Dict[str, Any]]:
    try:
        raw = json.loads(data)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return None
    return raw if isinstance(raw, dict) else None


def read_json(path: PathLike) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``; None when the file is missing,
    unreadable or not a JSON object."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    return _parse_object(data)


def _quarantine(path: Path) -> None:
    aside = path.with_name(f"{path.name}.corrupt-{uuid.uuid4().hex[:12]}")
    os.replace(path, aside)
    from repro.obs.metrics import counter

    counter("store.quarantined").inc()


def update_json(
    path: PathLike,
    merge: Callable[[Dict[str, Any]], Any],
    newline: bool = False,
    **dump_kwargs: Any,
) -> None:
    """Under the store's lock, replace ``path`` with
    ``merge(current contents)`` written by :func:`write_json`.

    ``merge`` receives ``{}`` when the file is missing, or when it does
    not parse as a JSON object, in which case it is quarantined first.
    """
    path = Path(path)
    with locked(path):
        try:
            current = _parse_object(path.read_bytes())
        except FileNotFoundError:
            current = {}
        if current is None:
            _quarantine(path)
            current = {}
        write_json(path, merge(current), newline=newline, **dump_kwargs)
