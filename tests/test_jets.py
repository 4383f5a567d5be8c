import math
import random

import mpmath as mp
import pytest

from susypainleve.jets import (
    DomainError,
    Jet,
    OrderMismatchError,
    PoleError,
    jet_compose,
    jet_const,
    jet_div,
    jet_mul,
    jet_sqrt,
    jet_var,
    log_derivative,
)


def exp_of(inner):
    """exp(inner), composed from the exp jet at inner's value: every derivative is exp(y0)."""
    return jet_compose(Jet((math.exp(inner.value),) * (inner.order + 1)), inner)


def test_const_and_var():
    assert jet_const(1.0, 2).d == (1.0, 0.0, 0.0)
    assert jet_const(0.0, 4).d == (0.0,) * 5
    assert jet_const(-0.125, 2).d == (-0.125, 0.0, 0.0)
    assert jet_var(2.0, 3).d == (2.0, 1.0, 0.0, 0.0)
    assert jet_var(0.0, 1).d == (0.0, 1.0)
    assert jet_var(0.5, 4).d == (0.5, 1.0, 0.0, 0.0, 0.0)
    assert jet_var(1.0, 0).d == (1.0,)
    with pytest.raises(ValueError):
        jet_var(1.0, -1)


def test_mul_examples():
    x = jet_var(2.0, 2)
    assert jet_mul(x, x).d == (4.0, 4.0, 2.0)
    a = Jet((1.3, -0.2, 4.0))
    assert jet_mul(a, jet_const(1.0, 2)).d == a.d
    e = Jet((1.0,) * 4)  # exp at x = 0
    assert jet_mul(e, e).d == pytest.approx((1.0, 2.0, 4.0, 8.0), rel=1e-15)


def test_div_examples():
    a = Jet((1.3, -0.2, 4.0, 0.7))
    q = jet_div(a, a)
    assert q.d == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)
    x = jet_var(2.0, 2)
    assert jet_div(jet_const(1.0, 2), x).d == pytest.approx((0.5, -0.25, 0.25))
    x1 = jet_var(1.0, 2)
    assert jet_div(jet_mul(x1, x1), x1).d == pytest.approx((1.0, 1.0, 0.0))
    with pytest.raises(PoleError):
        jet_div(a, jet_const(1e-12, 3))
    with pytest.raises(OrderMismatchError):
        jet_mul(a, jet_var(1.0, 2))


def test_sqrt_examples():
    assert jet_sqrt(Jet((4.0, 4.0, 2.0))).d == pytest.approx((2.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        jet_sqrt(Jet((-1.0, 1.0)))


def test_log_derivative_examples():
    # u = exp(-x^2/2) at x=1: (ln u)' = -x
    x = jet_var(1.0, 3)
    u = exp_of(x * x * (-0.5))
    ld = log_derivative(u)
    assert ld.d == pytest.approx((-1.0, -1.0, 0.0), abs=1e-15)
    # u = x exp(-x^2/2) at x=2: (ln u)' = 1/x - x
    x = jet_var(2.0, 3)
    u = x * exp_of(x * x * (-0.5))
    assert log_derivative(u).value == pytest.approx(0.5 - 2.0)
    assert log_derivative(jet_const(3.0, 2)).d == (0.0, 0.0)
    with pytest.raises(PoleError):
        log_derivative(Jet((0.0, 1.0)))


def _poly_eval_derivs(coeffs, x, order):
    """Oracle: exact derivatives of a polynomial via coefficient shifts."""
    out = []
    c = list(coeffs)
    for _ in range(order + 1):
        out.append(sum(ck * x**k for k, ck in enumerate(c)))
        c = [k * ck for k, ck in enumerate(c)][1:] or [0.0]
    return out


def _poly_jet(coeffs, x, order):
    xj = jet_var(x, order)
    out = jet_const(0.0, order)
    for k, ck in enumerate(coeffs):
        out = out + ck * xj**k
    return out


def test_polynomial_ops_match_symbolic_differentiation():
    rng = random.Random(42)
    for _ in range(40):
        K = rng.randint(1, 5)
        p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, K + 1))]
        q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, K + 1))]
        x = rng.uniform(-1.5, 1.5)
        pj, qj = _poly_jet(p, x, K), _poly_jet(q, x, K)
        # product against the symbolic product polynomial
        prod = [0.0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj_ in enumerate(q):
                prod[i + j] += pi * qj_
        want = _poly_eval_derivs(prod, x, K)
        got = jet_mul(pj, qj).d
        scale = max(1.0, *(abs(w) for w in want))
        assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got, want))
        # sum
        s = [0.0] * max(len(p), len(q))
        for i, pi in enumerate(p):
            s[i] += pi
        for i, qi in enumerate(q):
            s[i] += qi
        want = _poly_eval_derivs(s, x, K)
        got = (pj + qj).d
        assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got, want))


def test_div_roundtrip_property():
    # Well-scaled divisors (entries comparable to the leading value) with
    # |b[0]| down to 1e-6: the roundtrip must hold to 1e-12 relative.
    rng = random.Random(7)
    for _ in range(60):
        K = rng.randint(1, 6)
        a = Jet(tuple(rng.uniform(-3, 3) for _ in range(K + 1)))
        b0 = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 0.5)
        b = Jet((b0,) + tuple(b0 * rng.uniform(-1, 1) for _ in range(K)))
        back = jet_div(jet_mul(a, b), b)
        scale = max(1.0, *(abs(v) for v in a.d))
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(back.d, a.d))


def test_log_derivative_product_rule():
    rng = random.Random(11)
    for _ in range(40):
        K = rng.randint(2, 6)
        a = Jet(tuple(rng.uniform(0.5, 3) for _ in range(K + 1)))
        b = Jet(tuple(rng.uniform(0.5, 3) for _ in range(K + 1)))
        lhs = log_derivative(jet_mul(a, b))
        rhs = log_derivative(a) + log_derivative(b)
        scale = max(1.0, *(abs(v) for v in rhs.d))
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(lhs.d, rhs.d))


def test_transcendental_ops_against_mpmath():
    # Independent high-precision oracle for div, sqrt and composition with
    # exp through a nontrivial expression: f(x) = exp(p(x)) / sqrt(q(x)).
    mp.mp.dps = 30
    p = [0.3, -0.7, 0.25]
    q = [2.0, 0.4, 0.9]
    x0, K = 0.8, 5

    def f(x):
        pv = p[0] + p[1] * x + p[2] * x**2
        qv = q[0] + q[1] * x + q[2] * x**2
        return mp.exp(pv) / mp.sqrt(qv)

    want = [float(mp.diff(f, mp.mpf(x0), k)) for k in range(K + 1)]
    pj = _poly_jet(p, x0, K)
    qj = _poly_jet(q, x0, K)
    got = jet_div(exp_of(pj), jet_sqrt(qj)).d
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_compose_against_mpmath():
    mp.mp.dps = 30
    K = 5
    z0 = 1.7

    def outer(y):
        return mp.exp(-y / 2) * (1 + y)

    def inner(z):
        return mp.sqrt(z / 2)

    y0 = float(inner(mp.mpf(z0)))
    outer_jet = Jet(tuple(float(mp.diff(outer, mp.mpf(y0), k)) for k in range(K + 1)))
    inner_jet = jet_sqrt(jet_var(z0, K) * 0.5)
    got = jet_compose(outer_jet, inner_jet).d
    want = [float(mp.diff(lambda z: outer(inner(z)), mp.mpf(z0), k)) for k in range(K + 1)]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-11 * max(1.0, abs(w))


def test_deriv_shift_and_truncate():
    a = Jet((1.0, 2.0, 3.0, 4.0))
    assert a.deriv().d == (2.0, 3.0, 4.0)
    assert a.deriv(2).d == (3.0, 4.0)
    assert a.truncate(1).d == (1.0, 2.0)
    with pytest.raises(OrderMismatchError):
        a.truncate(5)


def test_non_finite_entries_rejected():
    with pytest.raises(DomainError):
        Jet((1.0, math.inf))
