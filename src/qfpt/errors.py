"""Exception hierarchy shared across the package."""


class QfptError(Exception):
    """Base class for package-specific errors."""


class ConfigError(QfptError):
    """Invalid user input: bad flags, malformed files, incompatible options."""


class ModelError(ConfigError):
    """A Lindblad model violates a structural requirement."""


class ConvergenceError(QfptError):
    """A numerical procedure failed to reach its accuracy or stability target."""


class TailNotConvergedError(ConvergenceError):
    """Survival mass remains beyond the horizon where moments were requested."""


class DegenerateKernelError(ConvergenceError):
    """The generator kernel is not one-dimensional."""


class PhysicsError(QfptError):
    """A physical invariant was violated beyond numerical tolerance."""


class LedgerError(PhysicsError):
    """A series does not close the probability ledger G(T) + int f = 1."""
