"""Exception types shared across the toolkit."""


class HesstopError(Exception):
    """Base class for all toolkit errors."""


class PolynomialSyntaxError(HesstopError):
    """Polynomial text could not be tokenized."""


class NotHomogeneousError(HesstopError):
    """Parsed terms carry two different total degrees."""

    def __init__(self, degree_a: int, degree_b: int):
        super().__init__(
            "terms of degree %d and %d cannot mix in a homogeneous polynomial"
            % (degree_a, degree_b)
        )
        self.degrees = (degree_a, degree_b)


class DomainError(HesstopError):
    """An argument violates an operation's domain."""


class PreconditionFailed(HesstopError):
    """A certification hypothesis failed; carries the hypothesis name."""

    def __init__(self, hypothesis: str, detail: str = ""):
        message = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(message)
        self.hypothesis = hypothesis


class NotHyperbolicHere(HesstopError):
    """A quadratic form was sampled where its discriminant is not positive."""


class RefinementLimit(HesstopError):
    """Adaptive bisection exceeded its depth cap."""
