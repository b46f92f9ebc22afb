"""Skeletal action recognition from the distribution of movement directions.

The pipeline: smooth each joint trajectory, resample it to a fixed frame
count by arc length, difference consecutive frames into direction frames,
join short runs of them into windowed direction vectors, and normalize.
A self-organizing map quantizes those vectors into clusters; an action is
described by its histogram of cluster hits, and classified by per-cluster
class probabilities estimated from training data.

The public names below are the supported surface; the `dam` console script
exposes the same functionality as subcommands (convert, train, classify,
evaluate, sweep).
"""

from .classifier import (
    ClassModel,
    Posterior,
    class_posterior,
    classify_action,
    estimate_class_probabilities,
    fit_model,
    load_model,
    save_model,
)
from .dataset import (
    Action,
    Dataset,
    Msrc12Layout,
    class_order,
    filter_action_set,
    load_canonical_dataset,
    load_msr_action3d,
    load_msrc12,
    parse_action_file,
    serialize_action,
    split_cross_subject,
    splits_loso,
    write_canonical_dataset,
)
from .descriptor import Histogram, compute_histogram
from .evaluation import (
    AggregateResult,
    ExperimentConfig,
    RunResult,
    SweepRow,
    cross_validate,
    derive_seed,
    evaluate_loso,
    parameter_sweep,
    run_single,
    write_confusion_csv,
    write_per_subject_csv,
    write_prob_matrix_csv,
    write_results_csv,
    write_sweep_csv,
)
from .preprocess import (
    PreprocessParams,
    arc_length_resample,
    direction_frames,
    normalize_wdfs,
    preprocess_action,
    smooth_joint,
    windowed_direction_frames,
)
from .som import SomGrid, SomTrainParams, bmu, bmu_batch, quantization_error, train_som
from .synthetic import make_directional_dataset, make_ordered_dataset

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AggregateResult",
    "ClassModel",
    "Dataset",
    "ExperimentConfig",
    "Histogram",
    "Msrc12Layout",
    "Posterior",
    "PreprocessParams",
    "RunResult",
    "SomGrid",
    "SomTrainParams",
    "SweepRow",
    "arc_length_resample",
    "bmu",
    "bmu_batch",
    "class_order",
    "class_posterior",
    "classify_action",
    "compute_histogram",
    "cross_validate",
    "derive_seed",
    "direction_frames",
    "estimate_class_probabilities",
    "evaluate_loso",
    "filter_action_set",
    "fit_model",
    "load_canonical_dataset",
    "load_model",
    "load_msr_action3d",
    "load_msrc12",
    "make_directional_dataset",
    "make_ordered_dataset",
    "normalize_wdfs",
    "parameter_sweep",
    "parse_action_file",
    "preprocess_action",
    "quantization_error",
    "run_single",
    "save_model",
    "serialize_action",
    "smooth_joint",
    "split_cross_subject",
    "splits_loso",
    "train_som",
    "windowed_direction_frames",
    "write_canonical_dataset",
    "write_confusion_csv",
    "write_per_subject_csv",
    "write_prob_matrix_csv",
    "write_results_csv",
    "write_sweep_csv",
    "__version__",
]
