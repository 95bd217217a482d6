"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class SupercriticalCouplingError(DomainError):
    """Z*alpha >= 1, so sqrt(1 - (Z*alpha)^2) is not real and no bound state exists."""


class PhaseSingularityError(DomainError):
    """Wavefunction phase gradient undefined here (node or symmetry axis, m != 0)."""


class OriginSingularityError(DomainError):
    """Evaluation at r = 0, where the relativistic radial amplitude diverges and the flow is
    undefined, or a trajectory field evaluation inside the origin guard radius."""


class NotFiniteError(ValueError):
    """A value of a table is NaN or infinite, which the text formats cannot carry."""


class TrajectorySingularityError(RuntimeError):
    """Integration approached the origin guard radius.

    Carries the trajectory's columns (t, x, y, z, vx, vy, vz) up to the last
    good state so callers can still serialize what was computed.
    """

    def __init__(self, message: str, columns: tuple = ()):
        super().__init__(message)
        self.columns = columns


class UsageError(Exception):
    """A command-line value a command cannot run with: the CLI reports it as a usage error, with exit
    status 2, as it reports a malformed command line."""
