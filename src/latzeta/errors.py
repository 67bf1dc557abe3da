"""Shared exception types."""


class SingularMatrixError(ValueError):
    """An integer matrix that must be invertible is singular."""


class TypeZeroViolationError(ValueError):
    """A subgroup generator has nonzero type, so vertex types are undefined."""

    def __init__(self, generator, tau, n):
        self.generator = tuple(int(x) for x in generator)
        self.tau = int(tau)
        self.n = int(n)
        super().__init__(
            f"generator {self.generator} has type {self.tau} != 0 (mod {self.n}); "
            "pass check_types=False to work with the untyped Cayley graph"
        )


class MultigraphError(ValueError):
    """Operation is restricted to simple quotient graphs."""


class ResourceCapError(RuntimeError):
    """A configured size cap was exceeded."""


class BoxExhaustionError(RuntimeError):
    """An enumeration box failed its completeness self-check."""

