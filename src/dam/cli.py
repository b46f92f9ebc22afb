"""Command-line interface: convert, train, classify, evaluate, sweep.

One binary, subcommand style. Experiment settings come from an optional JSON
config file with flag overrides (flags win); `DAM_SEED` supplies the default
seed when neither gives one, and any other setting left out takes the default
of the library dataclass it feeds. Every failure is reported as a single
`error: ...` line on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import logging
import os
import reprlib
import shutil
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import _native
from ._jsonin import build, convert, field_types, is_kind, read_object
from .classifier import action_windows, load_model, posteriors, save_model
from .dataset import (
    EXCLUDE_FILENAME,
    Dataset,
    Msrc12Layout,
    _action3d_actions,
    _canonical_actions,
    _canonical_files,
    _msrc12_actions,
    drop_excluded,
    parse_action_file,
    write_canonical_dataset,
)
from .evaluation import (
    CROSS_SUBJECT,
    LOSO,
    ExperimentConfig,
    _evaluate,
    _fit,
    _sweep,
    _sweep_combos,
    window_table,
    write_confusion_csv,
    write_per_subject_csv,
    write_prob_matrix_csv,
    write_results_csv,
    write_sweep_csv,
)
from .preprocess import PreprocessParams
from .som import SomTrainParams, _usable_cpus

logger = logging.getLogger(__name__)

SEED_ENV_VAR = "DAM_SEED"
FORMATS = ("canonical", "action3d", "msrc12")

_PROTOCOL_ALIASES = {
    "cross-subject": CROSS_SUBJECT,
    "cross_subject": CROSS_SUBJECT,
    CROSS_SUBJECT: CROSS_SUBJECT,
    "loso": LOSO,
}


class CliError(Exception):
    """Usage or configuration problem; exits with status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise CliError(message)


# --- Settings resolution ---------------------------------------------------------


def _grid(key: str, value) -> tuple[int, int]:
    """Accept '25x25' or a [rows, cols] pair of integers."""
    pair = value
    if isinstance(value, str):
        try:
            pair = [int(part) for part in value.lower().split("x")]
        except ValueError:
            pair = None
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(is_kind(v, int) for v in pair)):
        raise CliError(f'{key} must look like "25x25" or [25, 25], got {value!r}')
    return pair[0], pair[1]


def _non_empty_list(key: str, value, convert_item) -> list:
    """A list from JSON or from a comma-separated flag, each item converted."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, list) or not value:
        raise CliError(f"{key} must be a non-empty list, got {value!r}")
    return [convert_item(key, item) for item in value]


def _window_item(key: str, value) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise CliError(f"{key} must be integers, got {value!r}") from None
    return convert(int, key, value)


def _jobs(key: str, value) -> int:
    jobs = convert(int, key, value)
    if jobs < 1:
        raise CliError(f"{key} must be >= 1, got {jobs}")
    return jobs


def _protocol(key: str, value) -> str:
    protocol = _PROTOCOL_ALIASES.get(str(value).lower())
    if protocol is None:
        raise CliError(
            f"unknown {key} {value!r}; choose from {', '.join(sorted(set(_PROTOCOL_ALIASES)))}"
        )
    return protocol


def _action_sets(key: str, value) -> dict:
    if isinstance(value, str):
        return load_action_sets(value)
    return _check_action_sets(value, f"config key {key}")


# The one conversion of each config key (and of the flag of the same name).
_CONVERTERS = {
    **{key: partial(convert, hint) for key, hint in field_types(PreprocessParams).items()},
    "grid": _grid,
    **dict.fromkeys(("epochs", "runs", "seed"), partial(convert, int)),
    "jobs": _jobs,
    "learning_rate": partial(convert, tuple[float, float]),
    "som_radius": partial(convert, tuple[float | None, float]),
    "protocol": _protocol,
    "windows": partial(_non_empty_list, convert_item=_window_item),
    "grids": partial(_non_empty_list, convert_item=_grid),
    "action_sets": _action_sets,
}

# Recognized config-file keys; anything else (bar "_"-prefixed comments) is an error.
CONFIG_KEYS = frozenset(_CONVERTERS)


def _load_config(path) -> dict:
    data = read_object(path, "config")
    unknown = sorted(k for k in data if k not in CONFIG_KEYS)
    if unknown:
        raise CliError(
            f"config {path} has unknown key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(CONFIG_KEYS))}"
        )
    return data


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def resolve_settings(args, config: dict) -> dict:
    """Merge flags over config file over DAM_SEED; convert each given key once.

    Keys given nowhere are left out, so the library dataclasses built from the
    result supply their own defaults.
    """
    settings = {}
    for key, to_setting in _CONVERTERS.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is None and key == "seed":
            value = _env_seed()
        if value is not None:
            settings[key] = to_setting(key, value)
    return settings


def _require(settings: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in settings]
    if missing:
        flags = "/".join(f"--{k}" for k in missing)
        raise CliError(
            f"missing required setting(s): {', '.join(missing)} "
            f"(pass {flags} or put them in a config file)"
        )


def _given(settings: dict, *keys: str) -> dict:
    return {k: settings[k] for k in keys if k in settings}


def preprocess_params(settings: dict) -> PreprocessParams:
    _require(settings, "frames", "window")
    return PreprocessParams(**_given(settings, *field_types(PreprocessParams)))


def som_params(settings: dict) -> SomTrainParams:
    fields = _given(settings, "epochs")
    if "learning_rate" in settings:
        fields["learning_rate_start"], fields["learning_rate_end"] = settings["learning_rate"]
    params = SomTrainParams(**fields)
    try:  # SomTrainParams names radius_start and radius_end, which no flag or file holds
        return replace(params, **dict(zip(("radius_start", "radius_end"),
                                          settings.get("som_radius", ()))))
    except ValueError as e:
        raise ValueError(f"som_radius: {e}") from None


def experiment_config(settings: dict) -> ExperimentConfig:
    _require(settings, "frames", "window", "grid")
    rows, cols = settings["grid"]
    return ExperimentConfig(
        preprocess_params(settings), rows, cols, som=som_params(settings),
        **_given(settings, "runs", "seed"),
    )


def _check_action_sets(sets, source: str) -> dict:
    if not (is_kind(sets, dict) and sets):
        raise CliError(f"{source} must map subset names to class lists, got {sets!r}")
    for name, labels in sets.items():
        if not (is_kind(labels, list) and labels
                and all(is_kind(label, int) or is_kind(label, str) for label in labels)):
            raise CliError(f"action set {name!r} in {source} must be a non-empty list of "
                           f"integer or string class labels, got {reprlib.repr(labels)}")
    return sets


def load_action_sets(path) -> dict:
    """Read a subset file: JSON object mapping subset name -> class-label list."""
    return _check_action_sets(read_object(path, "action sets"), f"action sets {path}")


# --- Dataset loading ------------------------------------------------------------


def _load_layout(path) -> Msrc12Layout:
    try:
        data = read_object(path, "layout")
    except ValueError as e:
        raise CliError(str(e)) from None
    try:
        return build(Msrc12Layout, data)
    except ValueError as e:
        raise CliError(f"layout {path}: {e}") from None


def _load_dataset(directory, fmt: str, layout_path=None, apply_exclusions: bool = True):
    """The (count, (file name, action) pairs) stream of `directory`, which
    `window_table` reads one action at a time."""
    if fmt == "canonical":
        return _canonical_actions(directory, apply_exclusions=apply_exclusions)
    if fmt == "action3d":
        return _action3d_actions(directory, apply_exclusions=apply_exclusions)
    if fmt == "msrc12":
        layout = _load_layout(layout_path) if layout_path else None
        return _msrc12_actions(directory, layout=layout, apply_exclusions=apply_exclusions)
    raise CliError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")


# --- Subcommands ------------------------------------------------------------------


def cmd_convert(args) -> int:
    out_dir = Path(args.output)
    try:
        _, actions = _load_dataset(args.data, args.format, args.layout,
                                   apply_exclusions=args.apply_exclusions)
        dataset = Dataset([action for _, action in actions])
    except ValueError as e:
        if str(e).startswith("no "):
            raise CliError(f"no input files: {e}") from None
        raise
    write_canonical_dataset(dataset, out_dir)
    exclude_src = Path(args.data) / EXCLUDE_FILENAME
    if not args.apply_exclusions and exclude_src.is_file():
        shutil.copyfile(exclude_src, out_dir / EXCLUDE_FILENAME)
    print(
        f"wrote {len(dataset)} actions ({len(dataset.class_set)} classes, "
        f"{len(dataset.subject_set)} subjects) to {out_dir}"
    )
    return 0


def _settings(args, make) -> tuple:
    """The resolved settings and `make(settings)`, the dataclasses they build.

    Every error in the config or the flags exits 2, a value out of range included.
    """
    try:
        settings = resolve_settings(args, _load_config(args.config) if args.config else {})
        return settings, make(settings)
    except ValueError as e:
        raise CliError(str(e)) from None


def cmd_train(args) -> int:
    _, cfg = _settings(args, experiment_config)
    dataset, tables = window_table(
        _load_dataset(args.data, args.format, args.layout), [cfg.preprocess])
    model = _fit(cfg, replace(cfg.som, seed=cfg.seed), dataset, tables[cfg.preprocess])
    save_model(model, args.output)
    print(f"wrote {args.output}: {cfg.rows}x{cfg.cols} grid ({cfg.clusters} units), "
          f"{len(model.classes)} classes, {len(dataset)} actions")
    return 0


def _classify_inputs(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            try:
                files.extend(_canonical_files(path))
            except ValueError as e:
                raise CliError(f"no input files: {e}") from None
        elif path.is_file():
            files.append(path)
        else:
            raise CliError(f"input not found: {path}")
    return files


# Inputs `dam classify` scores with one winner search; it bounds the windows
# held at once for a large directory.
_CLASSIFY_GROUP = 256


def cmd_classify(args) -> int:
    model = load_model(args.model)
    lines = ["id,predicted," + ",".join(f"score_{c}" for c in model.classes)]
    zero_evidence = 0
    files = _classify_inputs(args.inputs)
    # Input i of a group owns rows [i w, (i + 1) w) of one window table.
    w = model.params.wdf_count
    table = np.empty((min(len(files), _CLASSIFY_GROUP) * w, model.grid.dim))
    for first in range(0, len(files), _CLASSIFY_GROUP):
        ids = []
        for i, path in enumerate(files[first:first + _CLASSIFY_GROUP]):
            try:
                action = parse_action_file(path.read_bytes())
                table[i * w:(i + 1) * w] = action_windows(model, action)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
            ids.append(action.id)
        # Preprocessed windows are finite and of the model's dimension, so
        # scoring raises for no input.
        for ident, posterior in zip(ids, posteriors(model, table[:len(ids) * w], [w] * len(ids))):
            zero_evidence += posterior.zero_evidence
            scores = ",".join(format(v, ".6g") for v in posterior.normalized())
            lines.append(f"{ident},{posterior.predicted},{scores}")
    print("\n".join(lines))
    if zero_evidence:
        print(
            f"warning: {zero_evidence} of {len(lines) - 1} actions had zero evidence "
            f"(every window on a unit no training window won) and were predicted as "
            f"{model.classes[0]}",
            file=sys.stderr,
        )
    return 0


def cmd_evaluate(args) -> int:
    settings, cfg = _settings(args, experiment_config)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    has_exclusions = (Path(args.data) / EXCLUDE_FILENAME).is_file()
    mode = args.exclusions or ("both" if has_exclusions else "apply")
    # "both" reads the directory once, exclusions ignored, and filters the records.
    dataset, tables = window_table(
        _load_dataset(args.data, args.format, args.layout, apply_exclusions=mode == "apply"),
        [cfg.preprocess])
    passes = [(dataset, "")]
    if mode == "both" and has_exclusions:
        passes = [(drop_excluded(dataset, args.data), ""), (dataset, "_noexcl")]
    protocol = settings.get("protocol", CROSS_SUBJECT)
    aggregates = _evaluate((dataset, tables), [(protocol, subset, cfg) for subset, _ in passes],
                           settings.get("jobs", _usable_cpus()))
    for (_, suffix), agg in zip(passes, aggregates, strict=True):
        write_results_csv(out_dir / f"results{suffix}.csv", agg, cfg)
        write_confusion_csv(out_dir / f"confusion{suffix}.csv", agg)
        write_prob_matrix_csv(out_dir / f"probmatrix{suffix}.csv", agg)
        write_per_subject_csv(out_dir / f"per_subject{suffix}.csv", agg)
        tag = " (exclusions ignored)" if suffix else ""
        print(
            f"{agg.protocol}{tag}: mean accuracy {agg.mean_accuracy:.4f} "
            f"± {agg.std_accuracy:.4f} over {len(agg.run_results)} runs"
        )
    return 0


def _sweep_base(settings: dict) -> ExperimentConfig:
    _require(settings, "frames", "windows", "grids")
    # A 1-window, 1x1 config holds whenever the other settings do.
    base = experiment_config({**settings, "window": 1, "grid": (1, 1)})
    return _sweep_combos(base, settings["windows"], settings["grids"])[0]


def cmd_sweep(args) -> int:
    settings, base = _settings(args, _sweep_base)
    actions = _load_dataset(args.data, args.format, args.layout,
                            apply_exclusions=args.exclusions != "ignore")
    rows = _sweep(actions, base, settings["windows"], settings["grids"],
                  settings.get("action_sets"), settings.get("jobs", _usable_cpus()))
    write_sweep_csv(args.output, rows)
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


# --- Parser / entry point --------------------------------------------------------


def _add_data_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("data", help="dataset directory")
    p.add_argument("--format", choices=FORMATS, default="canonical",
                   help="input dataset format (default: canonical)")
    p.add_argument("--layout", default=None,
                   help="JSON column-layout file for --format msrc12")


def _add_experiment_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.add_argument("--frames", type=int, default=None, help="resampled frame count")
    p.add_argument("--window", type=int, default=None, help="direction frames per window")
    p.add_argument("--grid", default=None, help='SOM grid as "ROWSxCOLS", e.g. 25x25')
    p.add_argument("--epochs", type=int, default=None, help="SOM training epochs")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${SEED_ENV_VAR} or {ExperimentConfig.seed})")


def build_parser() -> _Parser:
    """The `dam` argument parser; `main` builds it once per process."""
    parser = _Parser(prog="dam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("convert", help="convert a dataset to canonical action files")
    _add_data_arguments(p)
    p.add_argument("output", help="directory for the canonical files")
    p.add_argument("--apply-exclusions", action="store_true",
                   help="drop excluded actions instead of copying the exclusion list")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a classification model on a whole dataset")
    _add_data_arguments(p)
    _add_experiment_arguments(p)
    p.add_argument("--output", "-o", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify canonical action files with a model")
    p.add_argument("--model", required=True, help="model file from `dam train`")
    p.add_argument("inputs", nargs="+",
                   help="canonical action files and/or directories of them")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="run a cross-validation protocol, write CSV results")
    _add_data_arguments(p)
    _add_experiment_arguments(p)
    p.add_argument("--protocol", default=None,
                   help="cross-subject (random half splits) or loso (leave-one-subject-out)")
    p.add_argument("--runs", type=int, default=None,
                   help=f"cross-subject repetitions (default {ExperimentConfig.runs})")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: the CPUs this process may use)")
    p.add_argument("--exclusions", choices=("apply", "ignore", "both"), default=None,
                   help="exclusion-list handling (default: both when an exclusion "
                        "file is present, else apply)")
    p.add_argument("--output-dir", required=True, help="directory for the CSV files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="cross-validate every window/grid combination")
    _add_data_arguments(p)
    _add_experiment_arguments(p)
    p.add_argument("--windows", default=None, help="comma-separated window sizes, e.g. 1,3,5")
    p.add_argument("--grids", default=None,
                   help='comma-separated grids, e.g. 10x10,25x25')
    p.add_argument("--action-sets", dest="action_sets", default=None,
                   help="JSON file mapping subset names to class-label lists")
    p.add_argument("--runs", type=int, default=None,
                   help=f"cross-subject repetitions per combination "
                        f"(default {ExperimentConfig.runs})")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: the CPUs this process may use)")
    p.add_argument("--exclusions", choices=("apply", "ignore"), default="apply",
                   help="exclusion-list handling (default: apply)")
    p.add_argument("--output", "-o", required=True, help="sweep CSV file to write")
    p.set_defaults(func=cmd_sweep)

    return parser


# Parsing keeps no state in the parser, so one serves every `main` call.
_parser = cache(build_parser)


def _fail(e: Exception, code: int) -> int:
    message = " ".join(str(e).splitlines()) or e.__class__.__name__
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    # One BLAS thread beside the SOM kernel's: with one per CPU, the first
    # winner search of a process now and then stalled for about a second.
    caller_threads = _native.blas_threads(1)
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        return _fail(e, 2)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (ValueError, OSError, MemoryError) as e:
        return _fail(e, 1)
    finally:
        _native.blas_threads(caller_threads)


if __name__ == "__main__":
    sys.exit(main())
