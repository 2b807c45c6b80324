import math

import pytest
from hypothesis import example, given, strategies as st

from tropimeas.rmax import (
    BOTTOM,
    as_float,
    odot,
    oplus,
    rho,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
scalars = st.one_of(st.just(BOTTOM), finite)


def test_oplus_examples():
    assert oplus(2, 5) == 5
    assert oplus(BOTTOM, 3) == 3
    assert oplus(BOTTOM, BOTTOM) == BOTTOM


def test_odot_examples():
    assert odot(2, 5) == 7
    assert odot(0, 4.5) == 4.5
    assert odot(BOTTOM, 5) == BOTTOM


def test_rho_examples():
    assert rho(0, BOTTOM) == 1.0
    assert rho(1.25, 1.25) == 0.0
    assert rho(math.log(2), 0) == pytest.approx(1.0, abs=1e-15)


def test_float_minus_inf_coerces_to_bottom():
    assert as_float(BOTTOM) == -math.inf
    assert oplus(float("-inf"), 3) == 3
    assert odot(float("-inf"), 3) == BOTTOM


def test_as_float_stores_minus_zero_as_zero():
    assert math.copysign(1.0, as_float(-0.0)) == 1.0
    assert math.copysign(1.0, odot(-0.0, -0.0)) == 1.0


def test_rmax_rejects_nan_and_plus_inf():
    with pytest.raises(ValueError):
        as_float(float("nan"))
    with pytest.raises(ValueError):
        as_float(float("inf"))


@given(scalars, scalars, scalars)
def test_semiring_axioms(a, b, c):
    assert oplus(a, b) == oplus(b, a)
    assert oplus(a, oplus(b, c)) == oplus(oplus(a, b), c)
    assert oplus(a, a) == a
    assert oplus(a, BOTTOM) == a
    assert odot(a, BOTTOM) == BOTTOM
    assert odot(0.0, a) == a
    assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))


@given(scalars, scalars, scalars)
@example(37.0, 0.5, 0.0)  # the float triangle misses by 2.0 = 1 ulp of e^37
def test_rho_metric_axioms(a, b, c):
    assert rho(a, b) == rho(b, a)
    assert rho(a, a) == 0.0
    ea, eb, ec = math.exp(a), math.exp(b), math.exp(c)
    # each rounded exponential and difference may be off by half an ulp
    # of the largest exponential
    slack = 1e-12 + 4 * math.ulp(max(ea, eb, ec))
    assert rho(a, c) <= rho(a, b) + rho(b, c) + slack
    # separation holds whenever the exponentials are distinguishable in
    # doubles (exp underflows tiny distinct arguments to the same float)
    if ea != eb:
        assert rho(a, b) > 0.0
