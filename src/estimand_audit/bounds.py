"""Bounds on the population average effect implied by an audited estimand.

When the estimand only represents a subpopulation of share p, the rest of
the population can contribute anything inside the known effect support
[b_lo, b_hi]; the identified set for the population average is then

    [mu * p + b_lo * (1 - p),  mu * p + b_hi * (1 - p)].

For negative weights the estimand still splits into a difference of two
nonnegatively weighted estimands, and the minimized interval has the same
form with p replaced by E[a] / max a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import _as_float_array, mu, normalize_sign
from .errors import InvalidDesign, InvalidSupport

__all__ = [
    "Interval",
    "SignDecomposition",
    "SupportBounds",
    "ate_bounds_from_validity",
    "ate_bounds_general",
    "decompose_negative_weights",
]


@dataclass(frozen=True)
class SupportBounds:
    """Known support of the individual effect, supp(Y(1)-Y(0)) ⊆ [b_lo, b_hi]."""

    b_lo: float
    b_hi: float

    def __post_init__(self):
        _as_float_array([self.b_lo, self.b_hi], "support bound")
        if self.b_lo > self.b_hi:
            raise InvalidSupport(
                f"support bounds are reversed: [{self.b_lo!r}, {self.b_hi!r}]"
            )


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def width(self):
        return self.hi - self.lo

    def to_json_dict(self):
        return {"lo": self.lo, "hi": self.hi, "width": self.width}


@dataclass(frozen=True)
class SignDecomposition:
    """Split of a signed-weight estimand into nonnegative components:
    mu = omega_plus * mu_plus - omega_minus * mu_minus, with
    omega_plus - omega_minus = 1.  The component means require tau;
    mu_minus is absent when there are no negative weights."""

    omega_plus: float
    omega_minus: float
    mu_plus: float | None = None
    mu_minus: float | None = None

    def to_json_dict(self):
        return {
            "omega_plus": self.omega_plus,
            "omega_minus": self.omega_minus,
            "mu_plus": self.mu_plus,
            "mu_minus": self.mu_minus,
        }


def ate_bounds_from_validity(mu_value, p_bar, sb):
    """Identified interval for the population average effect given the
    estimand value and the representative share p_bar."""
    if not -1e-12 <= p_bar <= 1 + 1e-12:
        raise InvalidDesign(f"p_bar={p_bar!r} is not a probability")
    p = min(1.0, max(0.0, float(p_bar)))
    return Interval(
        mu_value * p + sb.b_lo * (1.0 - p),
        mu_value * p + sb.b_hi * (1.0 - p),
    )


def _require_full_population(design):
    if not design.full_population:
        raise InvalidDesign(
            "the decomposition is stated for full-population estimands (w0 = 1)"
        )


def decompose_negative_weights(design):
    """Express the estimand as a difference of two nonnegatively weighted
    estimands carried by the positive- and negative-weight cells."""
    _require_full_population(design)
    design = normalize_sign(design)
    e_a = float(design.a @ design.p)
    plus = np.clip(design.a, 0.0, None)
    minus = np.clip(-design.a, 0.0, None)
    omega_plus = float(plus @ design.p) / e_a
    omega_minus = float(minus @ design.p) / e_a
    mu_plus = mu_minus = None
    if design.tau is not None:
        mu_plus = mu(design.with_a(plus))
        if omega_minus > 0:
            mu_minus = mu(design.with_a(minus))
    return SignDecomposition(omega_plus, omega_minus, mu_plus, mu_minus)


def ate_bounds_general(design, mu_value, sb):
    """Identified interval valid for any weight signs, using the share
    r = E[a] / max a.  Coincides with :func:`ate_bounds_from_validity`
    at the uniform measure when the weights are nonnegative."""
    _require_full_population(design)
    design = normalize_sign(design)
    r = float(design.a @ design.p) / float(design.a.max())
    return ate_bounds_from_validity(mu_value, min(1.0, max(0.0, r)), sb)
