"""Build-on-first-use loader for the package's C sources.

A source ships inside the package. The first time a process asks for it,
its library is loaded from a per-user cache, ``$XDG_CACHE_HOME/dam/`` (by
default ``~/.cache/dam/``), and compiled into the cache first when missing.
The cache is content-addressed: a library's name is the SHA-256 of the
source, the flags and the machine type, so a machine compiles each source
version once and later processes only load it. The build writes a temporary
file and renames it into place, so concurrent processes never load a
half-written library. The cache is append-only: a library is never changed
or removed once built, so any number of source versions (branches,
installs) share one cache without rebuilding, and deleting the directory is
always safe (the next process rebuilds what it needs).

A build the compiler rejects (a non-zero exit) leaves a marker beside the
library, keyed on the library and the compiler's resolved path, so later
processes do not run that compiler on that source again; a timeout or a
compiler that cannot be run leaves none. Delete the marker, or the cache,
to try again; another compiler tries anew.

`function` is the one place a C function gets its argument and result
types. Loading never raises: with no compiler, a failed build or a cached
file that does not load, `load` and `function` return None and the caller
keeps its Python path, which gives the same results. Either outcome is
logged once per process at INFO. `blas_threads` reads and sets the threads
of the OpenBLAS that numpy loaded, through ctypes too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# No -march and no fast-math: the code must round exactly as its Python path
# does, on every machine; -ffp-contract=off keeps gcc from fusing a multiply and add.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120


def _compiler() -> list[str] | None:
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"] if shutil.which("cc") else None


def _failure_marker(target: Path, compiler: str) -> Path:
    """Where a build of `target` that the compiler at `compiler` rejected is remembered."""
    key = hashlib.sha256(os.path.realpath(compiler).encode()).hexdigest()[:16]
    return target.with_name(f"{target.stem}-{key}.failed")


def _build(source: Path, target: Path) -> str | None:
    """Compile `source` into `target`; the reason it failed, or None."""
    cc = _compiler()
    if cc is None:
        return "no C compiler on PATH"
    marker = _failure_marker(target, shutil.which(cc[0]))
    try:
        return f"{marker.read_text()} (in an earlier build; delete {marker} to retry)"
    except FileNotFoundError:
        pass
    except OSError as exc:
        return f"cannot read the cache: {exc}"
    try:
        target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        scratch = tempfile.TemporaryDirectory(dir=target.parent, prefix=f"{target.stem}-",
                                              ignore_cleanup_errors=True)
    except OSError as exc:
        return f"cannot write the cache: {exc}"
    # Built inside a private directory that the `with` removes, whatever the outcome.
    with scratch:
        tmp = os.path.join(scratch.name, target.name)
        try:
            run = subprocess.run(
                [*cc, *CFLAGS, "-o", tmp, str(source)],
                capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S,
            )
            if run.returncode != 0:
                failure = f"{cc[0]} exited {run.returncode}: {run.stderr.strip()[-500:]}"
                with contextlib.suppress(OSError):
                    Path(tmp).write_text(failure)
                    os.replace(tmp, marker)
                return failure
            os.replace(tmp, target)
        except (OSError, subprocess.SubprocessError) as exc:
            return f"{cc[0]} failed: {exc}"
    return None


def library_path(source_name: str) -> Path:
    """Where the cache keeps the library built from the package source `source_name`."""
    source = Path(__file__).with_name(source_name)
    key = hashlib.sha256(source.read_bytes())
    key.update("\0".join((*CFLAGS, platform.machine())).encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(cache) / "dam" / f"{source.stem}-{key.hexdigest()[:32]}.so"


@functools.lru_cache(maxsize=None)
def load(source_name: str) -> ctypes.CDLL | None:
    """The compiled library of the package source `source_name`, or None."""
    source = Path(__file__).with_name(source_name)
    try:
        target = library_path(source_name)
    except OSError as exc:
        logger.info("%s: cannot read the source (%s); using the Python path", source_name, exc)
        return None
    if not target.exists():
        failure = _build(source, target)
        if failure is not None:
            logger.info("%s: not compiled (%s); using the Python path", source_name, failure)
            return None
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        logger.info("%s: cannot load %s (%s); using the Python path", source_name, target, exc)
        return None
    logger.info("%s: using the compiled library %s", source_name, target)
    return library


def function(source_name: str, name: str, restype, *argtypes):
    """The C function `name` of the compiled `source_name`, typed, or None when not compiled.

    `restype` and `argtypes` are ctypes types, as ctypes' attributes of those names take them.
    """
    library = load(source_name)
    return None if library is None else _typed(library, name, restype, *argtypes)


@functools.lru_cache(maxsize=None)
def _typed(library: ctypes.CDLL, name: str, restype, *argtypes):
    # Indexing makes a new function object, so two signatures of one name never clash.
    typed = library[name]
    typed.restype, typed.argtypes = restype, argtypes
    return typed


@functools.lru_cache(maxsize=None)
def _blas_thread_calls() -> tuple | None:
    """(get, set) of the thread calls of the OpenBLAS that numpy's extension module
    links, under the names that scipy-openblas (numpy's wheels) or OpenBLAS export."""
    core = getattr(np, "_core", None) or np.core  # numpy.core before numpy 2
    with contextlib.suppress(OSError):
        library = ctypes.CDLL(core._multiarray_umath.__file__)
        for name in ("scipy_openblas_%s64_", "scipy_openblas_%s", "openblas_%s64_", "openblas_%s"):
            with contextlib.suppress(AttributeError):
                return (_typed(library, name % "get_num_threads", ctypes.c_int),
                        _typed(library, name % "set_num_threads", None, ctypes.c_int))
    logger.info("numpy's BLAS exports no OpenBLAS thread calls; its threads are left as set")
    return None


def blas_threads(count: int | None = None) -> int | None:
    """The thread count of numpy's OpenBLAS, read before `count`, when given, is set;
    None, with nothing set, when that BLAS exports no OpenBLAS thread calls. A
    count that is already set is not set again: in a process forked from one
    that ran OpenBLAS's threads (a worker of the caller's own process pool),
    that call would rebuild their pool, and start a helper thread."""
    if (calls := _blas_thread_calls()) is None:
        return None
    current = calls[0]()
    if count is not None and count != current:
        calls[1](count)
    return current
