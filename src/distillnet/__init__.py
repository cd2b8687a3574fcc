"""distillnet: mentor-student knowledge distillation on a from-scratch CNN.

A small labeled split trains a mentor; the mentor's raw softmax rows become
the only training signal for students drawn from the remaining, unlabeled
pool. The package bundles the numpy layer engine, the architecture string
parser, the split/perturbation tooling, binary artifact formats, CSV
reporting, and a file-driven CLI (``distillnet --help``).
"""

from .config import ExperimentConfig, load_config
from .data import LabeledImageSet, gen_synthetic, gen_synthetic_split, load_cifar, load_idx
from .errors import (
    ConfigError,
    DistillError,
    FormatError,
    MissingArtifactError,
    ParseError,
    ShapeError,
    StateError,
    ValidationError,
)
from .evaluation import (
    BenchResult,
    bench_inference,
    confusion_matrix,
    evaluate,
    format_percent,
    relative_accuracy,
)
from .network import LayerStack, parse_arch, parse_tokens, render_tokens
from .pipeline import (
    SoftLabelSet,
    generate_soft_labels,
    load_checkpoint,
    load_soft_labels,
    save_checkpoint,
    save_soft_labels,
    train_baseline,
    train_student,
)
from .report import ModelResult
from .splitting import (
    PerturbConfig,
    SplitConfig,
    balanced_split,
    inject_ood,
    load_split_manifest,
    reduce_unbalanced,
    save_split_manifest,
    split_indices,
)
from .training import EpochLog, TrainConfig, cross_entropy, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "ConfigError",
    "DistillError",
    "EpochLog",
    "ExperimentConfig",
    "FormatError",
    "LabeledImageSet",
    "LayerStack",
    "MissingArtifactError",
    "ModelResult",
    "ParseError",
    "PerturbConfig",
    "ShapeError",
    "SoftLabelSet",
    "SplitConfig",
    "StateError",
    "TrainConfig",
    "ValidationError",
    "balanced_split",
    "bench_inference",
    "confusion_matrix",
    "cross_entropy",
    "evaluate",
    "format_percent",
    "gen_synthetic",
    "gen_synthetic_split",
    "generate_soft_labels",
    "inject_ood",
    "load_cifar",
    "load_checkpoint",
    "load_config",
    "load_idx",
    "load_soft_labels",
    "load_split_manifest",
    "parse_arch",
    "parse_tokens",
    "reduce_unbalanced",
    "relative_accuracy",
    "render_tokens",
    "save_checkpoint",
    "save_soft_labels",
    "save_split_manifest",
    "sgd_step",
    "split_indices",
    "train",
    "train_baseline",
    "train_student",
    "__version__",
]
