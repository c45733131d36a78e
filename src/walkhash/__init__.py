"""Keys from hashed chaotic lattice walks, plus the tools to measure them.

The pipeline: a seeded walk over Z^2 driven by contractive affine maps
(walk), serialized canonically and compressed into a fixed-length key
(keygen). The analysis side measures the walks themselves (fractal) and
the keys' sensitivity to small walk changes (diffusion, stats). cli wires
it all into the `walkhash` command.
"""

from .diffusion import (
    BitMatrix,
    PerturbMode,
    PerturbationSpec,
    TrialRecord,
    default_positions,
    perturb,
    run_avalanche,
    shannon_entropy,
    trial_seed,
    trial_summary,
)
from .errors import (
    BoundsExceeded,
    ConfigError,
    DegenerateInput,
    GeneratorFailure,
    InsufficientData,
    InvalidPosition,
    WalkhashError,
)
from .fractal import (
    DimensionEstimate,
    GeometryReport,
    box_count,
    default_box_sizes,
    estimate_point_dimension,
    geometry,
)
from .keygen import Digest, HashAlg, derive_key, digest_bytes, serialize_trajectory
from .stats import (
    ChiSquareMode,
    ChiSquareResult,
    chi_square_uniform,
    linear_fit,
    lower_regularized_gamma,
    upper_regularized_gamma,
)
from .walk import (
    AffineStep,
    LatticePoint,
    MapMode,
    Trajectory,
    WalkConfig,
    affine_step_for,
    generate_walk,
    lattice_bound,
    map_templates,
    sample_affine_step,
    step,
    walk_space_size,
)

__version__ = "0.1.0"

__all__ = [
    "AffineStep",
    "BitMatrix",
    "BoundsExceeded",
    "ChiSquareMode",
    "ChiSquareResult",
    "ConfigError",
    "DegenerateInput",
    "Digest",
    "DimensionEstimate",
    "GeneratorFailure",
    "GeometryReport",
    "HashAlg",
    "InsufficientData",
    "InvalidPosition",
    "LatticePoint",
    "MapMode",
    "PerturbMode",
    "PerturbationSpec",
    "Trajectory",
    "TrialRecord",
    "WalkConfig",
    "WalkhashError",
    "box_count",
    "chi_square_uniform",
    "default_box_sizes",
    "default_positions",
    "derive_key",
    "digest_bytes",
    "estimate_point_dimension",
    "generate_walk",
    "geometry",
    "lattice_bound",
    "linear_fit",
    "lower_regularized_gamma",
    "map_templates",
    "affine_step_for",
    "perturb",
    "run_avalanche",
    "sample_affine_step",
    "serialize_trajectory",
    "shannon_entropy",
    "step",
    "trial_seed",
    "trial_summary",
    "upper_regularized_gamma",
    "walk_space_size",
    "__version__",
]
