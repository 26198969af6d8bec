"""Label-noise experiments with a latent class-conditional flip model.

The package couples a small classifier with an explicit noisy-channel model:
latent true labels are resampled by collapsed Gibbs steps while the classifier
is fit to the current label estimates by minibatch SGD. Baselines (plain CE,
bootstrap, fixed forward correction, a learnable transition layer, and a
batch-EM reference) share the same classifier code so trajectories are
directly comparable.
"""

from .classifier import (
    Architecture,
    ClassifierParams,
    OptimizerState,
    forward_proba,
    init_params,
    load_checkpoint,
    pretrain_ce,
    save_checkpoint,
    soft_target_cross_entropy,
)
from .datagen import (
    OOD_LABEL,
    LabeledDataset,
    NoiseInjectionReport,
    NoiseSpec,
    apply_noise,
    make_gaussian_mixture,
    mark_clean_subset,
    save_dataset,
)
from .errors import InvariantError, ParameterError, TrainingError
from .metrics import (
    MetricsRecord,
    correction_ratio,
    read_metrics_csv,
    test_accuracy,
    transition_frobenius_error,
    transition_l1_error,
    variation_histogram,
    write_histogram_csv,
    write_metrics_csv,
)
from .noise_model import (
    DirichletPrior,
    confusion_counts,
    transition_from_counts,
    update_bound,
    warmup_transition,
)
from .sampler import (
    GibbsDiagnostics,
    exact_posterior_bruteforce,
    gibbs_sample_batch,
    mixing_diagnostic,
    sampling_distribution,
    total_variation_rows,
)
from .trainers import (
    TRAINER_KINDS,
    BatchVariation,
    RunResult,
    TrainConfig,
    run_trainer,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "BatchVariation",
    "ClassifierParams",
    "DirichletPrior",
    "GibbsDiagnostics",
    "InvariantError",
    "LabeledDataset",
    "MetricsRecord",
    "NoiseInjectionReport",
    "NoiseSpec",
    "OOD_LABEL",
    "OptimizerState",
    "ParameterError",
    "RunResult",
    "TRAINER_KINDS",
    "TrainConfig",
    "TrainingError",
    "apply_noise",
    "confusion_counts",
    "correction_ratio",
    "exact_posterior_bruteforce",
    "forward_proba",
    "gibbs_sample_batch",
    "init_params",
    "load_checkpoint",
    "make_gaussian_mixture",
    "mark_clean_subset",
    "mixing_diagnostic",
    "pretrain_ce",
    "read_metrics_csv",
    "run_trainer",
    "sampling_distribution",
    "save_checkpoint",
    "save_dataset",
    "soft_target_cross_entropy",
    "test_accuracy",
    "total_variation_rows",
    "transition_from_counts",
    "transition_frobenius_error",
    "transition_l1_error",
    "update_bound",
    "variation_histogram",
    "warmup_transition",
    "write_histogram_csv",
    "write_metrics_csv",
]
