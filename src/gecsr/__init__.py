"""Phase retrieval via expectation-consistent recovery with learned damping."""

from .model import (
    DatasetManifest,
    ManifestError,
    Sample,
    SignalPrior,
    TransformMatrix,
    forward_measure,
    sample_at,
    sample_signal,
)
from .solver import (
    DampingPolicy,
    GaussianMessage,
    PolicyFeatures,
    SolverTrace,
    align_phase,
    constant_schedule,
    geometric_schedule,
    nmse_db,
    run_solver,
    spectral_init,
)
from .hypernets import (
    VARIANTS,
    load_checkpoint,
    save_checkpoint,
)
from .training import TrainerConfig, evaluate, train

__all__ = [
    "DatasetManifest",
    "ManifestError",
    "Sample",
    "SignalPrior",
    "TransformMatrix",
    "forward_measure",
    "sample_at",
    "sample_signal",
    "DampingPolicy",
    "GaussianMessage",
    "PolicyFeatures",
    "SolverTrace",
    "align_phase",
    "constant_schedule",
    "geometric_schedule",
    "nmse_db",
    "run_solver",
    "spectral_init",
    "VARIANTS",
    "load_checkpoint",
    "save_checkpoint",
    "TrainerConfig",
    "evaluate",
    "train",
]
