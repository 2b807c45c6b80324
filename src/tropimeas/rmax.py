"""Scalar max-plus arithmetic.

A max-plus scalar is a plain float in R_max = R with -inf added:
``BOTTOM`` is ``-math.inf``.  Addition is ``oplus`` (max, bottom
neutral) and multiplication is ``odot`` (ordinary +, bottom absorbing);
IEEE arithmetic makes both exact on -inf.  nan and +inf are not max-plus
scalars, and :func:`as_float` rejects them.
"""

from __future__ import annotations

import math

BOTTOM = -math.inf


def as_float(a) -> float:
    """A max-plus scalar as a float, -0.0 as 0.0; nan and +inf raise ValueError."""
    a = float(a) + 0.0  # -0.0 + 0.0 is 0.0; every other value stays
    if math.isnan(a) or a == math.inf:
        raise ValueError(f"max-plus scalar must be finite or -inf, got {a}")
    return a


def oplus(a, b) -> float:
    """Max-plus addition: max(a, b), with bottom neutral."""
    return max(as_float(a), as_float(b))


def odot(a, b) -> float:
    """Max-plus multiplication: a + b, with bottom absorbing."""
    return as_float(a) + as_float(b)


def rho(a, b) -> float:
    """The metric |e^a - e^b| on max-plus scalars (e^bottom = 0)."""
    return abs(math.exp(as_float(a)) - math.exp(as_float(b)))
