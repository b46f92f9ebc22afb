"""Pytest plugin: build the package's C sources with AddressSanitizer and UBSan.

The flags join `dam._native.CFLAGS` before any library is loaded; the cache
key includes the flags, so sanitized libraries never replace plain ones. The
sanitizer runtimes must be loaded first, and Python's allocator bypassed so
that every object gets a redzone of its own:

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONMALLOC=malloc \\
    python -m pytest -p sanitize tests/test_dataset.py tests/test_classifier.py

with ``tests`` on ``PYTHONPATH``. A report aborts the process, which fails the run.
"""

SANITIZE = ("-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")


def pytest_configure(config):
    from dam import _native

    _native.CFLAGS = (*_native.CFLAGS, *SANITIZE)
    _native.load.cache_clear()
