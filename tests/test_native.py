"""Tests of the build-on-first-use kernel loader and of the path it selects."""

from __future__ import annotations

import ctypes
import logging
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from dam import _native, cli, som
from dam.dataset import load_canonical_dataset, write_canonical_dataset
from dam.evaluation import ExperimentConfig, cross_validate
from dam.preprocess import PreprocessParams, preprocess_action
from dam.som import SomTrainParams, train_som
from dam.synthetic import make_directional_dataset

SOURCE = "_som_kernel.c"
SRC = Path(som.__file__).resolve().parents[1]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, which the next `train_som` call loads from anew."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.load.cache_clear()
    yield tmp_path / "cache" / "dam"
    _native.load.cache_clear()


def _train() -> bytes:
    rng = np.random.default_rng(8)
    samples = np.round(rng.normal(size=(60, 7)), 1)
    return train_som(samples, 4, 3, SomTrainParams(epochs=2, seed=5)).codebook.tobytes()


@pytest.fixture(scope="module")
def numpy_bytes():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(som, "_block_runner", lambda units, dim: som._numpy_block)
        return _train()


def _fake_compilers(directory: Path, body: str) -> Path:
    """A directory holding `cc` and the configured compiler as shell scripts."""
    directory.mkdir()
    configured = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    for name in {"cc", os.path.basename(configured)}:
        script = directory / name
        script.write_text(f"#!/bin/sh\n{body}\n")
        script.chmod(0o755)
    return directory


SOURCES = sorted(p.name for p in SRC.joinpath("dam").glob("*.c"))


def _load_all(env: dict) -> subprocess.CompletedProcess:
    """Load every C source in a new process; prints which loaded."""
    code = (
        "import logging; logging.basicConfig(level=logging.INFO)\n"
        "from dam import _native\n"
        f"print([_native.load(name) is not None for name in {SOURCES!r}])\n"
    )
    return subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)


def _assert_fallback_ran(caplog, reason: str, source: str = SOURCE) -> None:
    assert _native.load(source) is None
    messages = [r.getMessage() for r in caplog.records if r.name == "dam._native"]
    assert len(messages) == 1
    assert messages[0].startswith(source) and reason in messages[0]
    assert messages[0].endswith("; using the Python path")


class TestFallback:
    def test_no_compiler_on_path(self, fresh_cache, tmp_path, monkeypatch, caplog,
                                 numpy_bytes):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        caplog.set_level(logging.INFO, logger="dam._native")
        assert _train() == numpy_bytes
        assert _train() == numpy_bytes
        _assert_fallback_ran(caplog, "no C compiler")

    def test_no_compiler_reads_the_same_tables(self, fresh_cache, tmp_path, monkeypatch,
                                               caplog):
        data = tmp_path / "data"
        write_canonical_dataset(
            make_directional_dataset(classes=2, subjects=2, instances=2, raw_frames=12,
                                     joints=3, seed=4, noise=0.05),
            data,
        )
        compiled = load_canonical_dataset(data)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other_cache"))
        _native.load.cache_clear()
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        caplog.clear()
        caplog.set_level(logging.INFO, logger="dam._native")
        python = load_canonical_dataset(data)
        assert [(a.id, a.frames.tobytes()) for a in python] == [
            (a.id, a.frames.tobytes()) for a in compiled]
        _assert_fallback_ran(caplog, "no C compiler", "_table_reader.c")

    def test_no_compiler_preprocesses_the_same_bytes(self, fresh_cache, tmp_path, monkeypatch,
                                                     caplog):
        actions = make_directional_dataset(classes=2, subjects=2, instances=2, raw_frames=30,
                                           joints=4, seed=6).actions
        params = PreprocessParams(frames=12, window=2)
        compiled = [preprocess_action(a, params).tobytes() for a in actions]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other_cache"))
        _native.load.cache_clear()
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        caplog.clear()
        caplog.set_level(logging.INFO, logger="dam._native")
        assert [preprocess_action(a, params).tobytes() for a in actions] == compiled
        _assert_fallback_ran(caplog, "no C compiler", "_preprocess.c")

    def test_failing_compile(self, fresh_cache, tmp_path, monkeypatch, caplog, numpy_bytes):
        bin_dir = _fake_compilers(tmp_path / "bin", "echo broken >&2; exit 1")
        monkeypatch.setenv("PATH", str(bin_dir))
        caplog.set_level(logging.INFO, logger="dam._native")
        assert _train() == numpy_bytes
        _assert_fallback_ran(caplog, "exited 1: broken")
        # No temporary file is left behind; only the marker of the failure.
        marker, = fresh_cache.iterdir()
        assert marker.name.startswith("_som_kernel-") and marker.suffix == ".failed"
        assert "exited 1: broken" in marker.read_text()

    def test_compiler_that_cannot_run_leaves_no_marker(self, fresh_cache, tmp_path,
                                                        monkeypatch, caplog, numpy_bytes):
        # Only a compiler's verdict on the source is remembered: one that
        # cannot even start (here, its interpreter is missing) may work later.
        bin_dir = _fake_compilers(tmp_path / "bin", "exit 1")
        for script in bin_dir.iterdir():
            script.write_text("#!/nonexistent/sh\nexit 1\n")
        monkeypatch.setenv("PATH", str(bin_dir))
        caplog.set_level(logging.INFO, logger="dam._native")
        assert _train() == numpy_bytes
        _assert_fallback_ran(caplog, "failed: ")
        assert list(fresh_cache.iterdir()) == []

    def test_failed_build_is_remembered_across_processes(self, fresh_cache, tmp_path):
        # Three processes each load every source with a compiler that fails:
        # it runs once per source, not once per source and process.
        log = tmp_path / "compiler_calls"
        failing = _fake_compilers(tmp_path / "failing", f"echo call >> {log}; exit 1")
        env = {**os.environ, "XDG_CACHE_HOME": str(fresh_cache.parent), "PATH": str(failing)}
        for _ in range(3):
            run = _load_all(env)
            assert run.stdout == f"{[False] * len(SOURCES)}\n"
        assert log.read_text() == "call\n" * len(SOURCES)
        assert run.stderr.count("in an earlier build; delete") == len(SOURCES)

    def test_another_compiler_builds_after_a_failure(self, tmp_path):
        # The marker names the compiler that failed, so a compiler at another
        # path still builds every source.
        _require(*SOURCES)
        real = shutil.which(_native._compiler()[0])
        log = tmp_path / "compiler_calls"
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache")}
        failing = _fake_compilers(tmp_path / "failing", f"echo call >> {log}; exit 1")
        assert _load_all({**env, "PATH": str(failing)}).stdout == f"{[False] * len(SOURCES)}\n"
        working = _fake_compilers(tmp_path / "working", f'echo call >> {log}; exec {real} "$@"')
        run = _load_all({**env, "PATH": os.pathsep.join((str(working), os.environ["PATH"]))})
        assert run.stdout == f"{[True] * len(SOURCES)}\n"
        assert log.read_text() == "call\n" * 2 * len(SOURCES)

    def test_corrupt_cached_library(self, fresh_cache, caplog, numpy_bytes):
        target = _native.library_path(SOURCE)
        target.parent.mkdir(parents=True)
        target.write_bytes(b"not a shared library")
        caplog.set_level(logging.INFO, logger="dam._native")
        assert _train() == numpy_bytes
        _assert_fallback_ran(caplog, "cannot load")
        assert target.read_bytes() == b"not a shared library"


def _require(*sources: str) -> None:
    """Skip unless every one of `sources` is compiled and loads here."""
    for source in sources:
        if _native.load(source) is None:
            pytest.skip(f"{source} was not compiled here")


def test_source_versions_share_a_cache_without_rebuilding(fresh_cache, tmp_path,
                                                          monkeypatch):
    # Three checkouts of the package whose versions of one source differ, as
    # when switching branches, alternate on one cache: each builds once.
    versions = []
    for version in (1, 2, 3):
        package = tmp_path / f"v{version}"
        package.mkdir()
        (package / "tiny.c").write_text(f"int dam_tiny(void) {{ return {version}; }}\n")
        versions.append(str(package / "_native.py"))
    builds, build = [], _native._build

    def counted_build(source, target):
        builds.append(target)
        return build(source, target)

    monkeypatch.setattr(_native, "_build", counted_build)
    monkeypatch.setattr(_native, "__file__", versions[0])
    _require("tiny.c")
    for module_file in versions * 3:
        monkeypatch.setattr(_native, "__file__", module_file)
        _native.load.cache_clear()
        tiny = _native.function("tiny.c", "dam_tiny", ctypes.c_int)
        assert tiny() == versions.index(module_file) + 1
    assert len(builds) == 3
    assert len(list(fresh_cache.glob("tiny-*.so"))) == 3


def test_workers_inherit_the_kernel_the_caller_compiled(fresh_cache, tmp_path, monkeypatch):
    # With a cold cache, cross_validate on two workers compiles the SOM kernel
    # once, in the calling process, before the workers start; workers that
    # loaded it themselves would each compile it.
    if _native._compiler() is None:
        pytest.skip("no C compiler on PATH")
    markers, build = tmp_path / "builds", _native._build
    markers.mkdir()

    def marked_build(source, target):
        with open(markers / f"{os.getpid()}-{source.name}", "a") as marker:
            marker.write("build\n")
        return build(source, target)

    monkeypatch.setattr(_native, "_build", marked_build)
    dataset = make_directional_dataset(classes=2, subjects=4, instances=2, raw_frames=12,
                                       joints=3, seed=4)
    cfg = ExperimentConfig(PreprocessParams(frames=8, window=2), 3, 3,
                           som=SomTrainParams(epochs=2), runs=2)
    cross_validate(dataset, cfg, jobs=2)
    builds = [(p.name, p.read_text()) for p in markers.iterdir() if p.name.endswith(SOURCE)]
    assert builds == [(f"{os.getpid()}-{SOURCE}", "build\n")]


def test_block_body_is_logged_once_per_library(caplog):
    library = _native.load(SOURCE)
    if library is None:
        pytest.skip("the C kernel was not compiled here")
    som._library_runner.cache_clear()
    caplog.set_level(logging.INFO, logger="dam.som")
    _train()
    _train()
    body = "avx2" if library.dam_som_avx2() else "baseline"
    messages = [r.getMessage() for r in caplog.records if r.name == "dam.som"]
    assert messages == [f"_som_kernel.c: running the {body} block body on 1 thread"]


def test_paper_shape_trains_on_two_threads(caplog):
    # The choice is logged next to the body, once per library and thread count.
    library = _native.load(SOURCE)
    if library is None:
        pytest.skip("the C kernel was not compiled here")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on one CPU only")
    som._library_runner.cache_clear()
    caplog.set_level(logging.INFO, logger="dam.som")
    samples = np.random.default_rng(3).normal(size=(700, 180))
    train_som(samples, 25, 25, SomTrainParams(epochs=1, seed=0))
    body = "avx2" if library.dam_som_avx2() else "baseline"
    messages = [r.getMessage() for r in caplog.records if r.name == "dam.som"]
    assert messages == [f"_som_kernel.c: running the {body} block body on 2 threads"]


def _which_runner(env: dict) -> subprocess.CompletedProcess:
    code = (
        "import logging; logging.basicConfig(level=logging.INFO)\n"
        "from dam import som\n"
        "print(som._block_runner(1, 1) is not som._numpy_block)\n"
    )
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_second_process_reuses_the_cached_library(tmp_path):
    _require(SOURCE)
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": str(SRC)}
    first = _which_runner(env)
    assert first.stdout == "True\n"
    library = _native.library_path(SOURCE).name
    assert (tmp_path / "cache" / "dam" / library).is_file()
    assert oct((tmp_path / "cache" / "dam").stat().st_mode & 0o777) == "0o700"

    marker = tmp_path / "compiler_ran"
    bin_dir = _fake_compilers(tmp_path / "bin", f"touch {marker}; exit 1")
    second = _which_runner({**env, "PATH": str(bin_dir)})
    assert second.stdout == "True\n"
    assert not marker.exists()
    assert second.stderr.count("using the compiled library") == 1


def _trained_model(tmp_path: Path) -> tuple[Path, Path]:
    """A small canonical dataset and a model `dam train` fit to it."""
    data, model = tmp_path / "data", tmp_path / "model.json"
    write_canonical_dataset(
        make_directional_dataset(classes=2, subjects=2, instances=2, raw_frames=20,
                                 joints=3, seed=1),
        data,
    )
    assert cli.main(["train", str(data), "-o", str(model), "--frames", "10",
                     "--window", "2", "--grid", "2x2", "--epochs", "1"]) == 0
    return data, model


def test_classify_never_builds_or_loads_the_kernel(tmp_path, monkeypatch, capsys):
    # Only the table reader and the preprocessing chain: `dam classify`
    # parses and preprocesses files but trains no map.
    data, model = _trained_model(tmp_path)
    calls = []
    monkeypatch.setattr(_native, "load", lambda name: calls.append(name))
    assert cli.main(["classify", "--model", str(model), str(data)]) == 0
    assert calls and set(calls) == {"_table_reader.c", "_preprocess.c"}


def test_compiled_classify_never_imports_scipy(tmp_path):
    _require("_table_reader.c", "_preprocess.c")
    # scipy's dgtsv serves only the numpy preprocessing path.
    data, model = _trained_model(tmp_path)
    code = (
        "import sys\n"
        "import dam.cli\n"
        f"status = dam.cli.main(['classify', '--model', {str(model)!r}, {str(data)!r}])\n"
        "print(status, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"
