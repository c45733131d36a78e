"""Keys from hashed chaotic lattice walks, plus the tools to measure them.

The pipeline: a seeded walk over Z^2 driven by contractive affine maps
(walk), serialized canonically and compressed into a fixed-length key
(keygen). The analysis side measures the walks themselves (fractal) and
the keys' sensitivity to small walk changes (diffusion, stats). cli wires
it all into the `walkhash` command.
"""

from types import ModuleType as _Module

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
from .keygen import HashAlg, derive_key, digest_bytes, serialize_trajectory
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
)

__version__ = "0.1.0"

# every public name imported above, not the submodules the imports bind
__all__ = [name for name, value in dict(globals()).items()
           if not name.startswith("_") and not isinstance(value, _Module)]
__all__.append("__version__")
