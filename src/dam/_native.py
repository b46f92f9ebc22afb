"""Build-on-first-use loader for the package's C sources.

A source ships inside the package. The first time a process asks for it,
its library is loaded from a per-user cache, ``$XDG_CACHE_HOME/dam/`` (by
default ``~/.cache/dam/``), and compiled into the cache first when missing.
The library's name is the SHA-256 of the source, the
flags and the machine type, so a machine compiles each source once and later
processes only load it. The build writes a temporary file and renames it
into place, so concurrent processes never load a half-written library.
After a build, the newest other library of that source (by build time) is
kept and the older ones are removed, so two source versions (two branches
or two installs) can share a cache without rebuilding on each switch, and
an edited source leaves at most one earlier library behind. Loading an
existing library removes nothing.

Loading never raises: with no compiler, a failed build or a cached file
that does not load, `load` returns None and the caller keeps its Python
path, which gives the same results. Either outcome is logged once per process at INFO.
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


def _build(source: Path, target: Path) -> str | None:
    """Compile `source` into `target`; the reason it failed, or None."""
    cc = _compiler()
    if cc is None:
        return "no C compiler on PATH"
    try:
        target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    except OSError as exc:
        return f"cannot write the cache: {exc}"
    os.close(fd)
    try:
        run = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(source)],
            capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S,
        )
        if run.returncode != 0:
            return f"{cc[0]} exited {run.returncode}: {run.stderr.strip()[-500:]}"
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{cc[0]} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
        others = []
        for other in target.parent.glob(f"{source.stem}-*.so"):
            if other != target:
                with contextlib.suppress(OSError):
                    others.append((other.stat().st_mtime_ns, other))
        for _, stale in sorted(others)[:-1]:
            with contextlib.suppress(OSError):
                stale.unlink()
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        logger.info("%s: cannot load %s (%s); using the Python path", source_name, target, exc)
        return None
    logger.info("%s: using the compiled library %s", source_name, target)
    return library
