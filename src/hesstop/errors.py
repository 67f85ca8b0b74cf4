"""Exception types shared across the toolkit, and how their messages
quote user text."""

# characters of user text that an error message repeats
ECHO_CHARS = 48


def excerpt(text: str) -> str:
    """repr of ``text`` for an error message: its first ECHO_CHARS
    characters and its length when it is longer, so a message stays short
    whatever the input."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


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
