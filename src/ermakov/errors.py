"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ErmakovError(Exception):
    """Base class for every error raised by this package.

    An error that aborts a stepper run carries the last valid state and
    the trajectory sampled so far (``last_t``/``last_state`` and
    ``partial``, None when no sample exists); the stepper sets them
    before re-raising, so callers can persist what was computed.
    """

    last_t: float | None = None
    last_state: list[float] | None = None
    partial = None


class ExprSyntaxError(ErmakovError):
    """Expression source could not be parsed.

    Carries the byte offset of the offending token so callers can point
    at the exact position in the source string.
    """

    def __init__(self, message: str, source: str, offset: int):
        self.source = source
        self.offset = offset
        super().__init__(f"{message} (at offset {offset} in {source!r})")


class ExprDomainError(ErmakovError):
    """Evaluation left the real domain (division by zero, ln/sqrt of a
    negative argument, overflow to a non-finite value)."""

    def __init__(self, message: str, node_text: str, x: float):
        self.node_text = node_text
        self.x = x
        super().__init__(f"{message} in {node_text!r} at argument {x!r}")


class ConfigError(ErmakovError):
    """Scenario configuration is missing, contradictory or malformed."""


class InvalidMassError(ErmakovError):
    """The mass function evaluated to a value that is not positive and
    finite."""

    def __init__(self, t: float, value: float):
        self.t = t
        self.value = value
        super().__init__(f"mass m(t) must be positive and finite, "
                         f"got m({t!r}) = {value!r}")


class SingularityError(ErmakovError):
    """A state hit the singularity guard (a coordinate entering a
    denominator fell below the guard threshold) at time ``t``."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message if t is None else f"{message} (at t={t!r})")


class IntegrationError(ErmakovError):
    """A stepper refused its plan (``model.check_plan``) or could not
    continue (step-size underflow, step budget, non-finite state)."""


class QuadratureError(ErmakovError):
    """Adaptive quadrature sampled a non-finite value or failed to
    converge within the recursion-depth budget."""


class InvariantError(ErmakovError):
    """The invariant evaluated to a non-finite value along a trajectory."""


class PotentialsUnavailableError(ErmakovError):
    """Operation needs the potentials themselves, but the scenario was
    built from bare coupling functions."""
