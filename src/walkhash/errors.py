"""Exception types shared across the package.

Everything raised on purpose derives from WalkhashError so callers (and the
CLI) can separate our failures from genuine bugs. ConfigError is reserved
for bad user input and maps to exit code 2 on the command line; every other
subclass maps to exit code 3.
"""


class WalkhashError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WalkhashError):
    """A configuration value is out of range or inconsistent."""


class BoundsExceeded(WalkhashError):
    """A walk left the precomputed safe lattice region.

    This indicates the contraction guarantee was violated (bad config or a
    numerical surprise). Coordinates are never wrapped or clamped; the walk
    aborts instead so keys are only ever derived from faithful trajectories.
    """


class InvalidPosition(ConfigError):
    """A perturbation position is outside the interior of the trajectory."""


class DegenerateInput(WalkhashError):
    """An input carries no usable signal (e.g. an all-zero bit matrix)."""


class InsufficientData(WalkhashError):
    """Too few points, or no spread, for the requested fit."""


class GeneratorFailure(WalkhashError):
    """The random stream kept producing unusable draws; should never happen."""
