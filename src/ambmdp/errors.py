"""Exception types shared across the package."""


class AmbiguityMDPError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleActionError(AmbiguityMDPError, ValueError):
    """An action was used in a state/epoch where it is not feasible."""


class TreeSizeLimitError(AmbiguityMDPError, RuntimeError):
    """Building the reachable belief tree would exceed the node cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"reachable belief tree exceeds node cap {cap}")


class TrajectoryLimitError(AmbiguityMDPError, RuntimeError):
    """Trajectory enumeration would exceed the trajectory cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"trajectory enumeration exceeds cap {cap}")


class PolicyTreeMismatchError(AmbiguityMDPError, ValueError):
    """A policy was evaluated against a model or tree it was not built for."""


class ConfigError(AmbiguityMDPError, ValueError):
    """A run configuration file failed to parse or validate."""
