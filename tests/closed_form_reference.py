"""The tabulated PIV closed forms, verbatim, as scalar functions of mpmath numbers.

The package evaluates each closed form as one reduced rational function of
(x, alpha), alpha = u'/u of the seed.  These are the forms it evaluated
before: g1 as its Kummer ratio, g2 and g3 built on g1 (g3 on g1 and its
derivative), and G1, G2, G3 built on alpha and G1.  They hold the poles of
g1, alpha and G1 that the reduced forms cancel, so they serve as the oracle
of tests/test_painleve.py at 50 digits, never as an evaluation path.
"""

import mpmath as mp


def g1(x, eps, odd):
    """g1 from its Kummer ratio: 1/x - 2x + (1 - 2eps/3) x F(7/4-eps/2; 5/2)/F(3/4-eps/2; 3/2), odd;
    -2x + (1 - 2eps) x F(5/4-eps/2; 3/2)/F(1/4-eps/2; 1/2), even (F(p; q) = 1F1(p; q; x^2))."""
    y = x * x
    if odd:
        top = mp.hyp1f1((7 - 2 * eps) / 4, mp.mpf(5) / 2, y)
        bottom = mp.hyp1f1((3 - 2 * eps) / 4, mp.mpf(3) / 2, y)
        return 1 / x - 2 * x + (1 - 2 * eps / 3) * (x * (top / bottom))
    top = mp.hyp1f1((5 - 2 * eps) / 4, mp.mpf(3) / 2, y)
    bottom = mp.hyp1f1((1 - 2 * eps) / 4, mp.mpf(1) / 2, y)
    return -2 * x + (1 - 2 * eps) * (x * (top / bottom))


def g2(x, g1_value, eps):
    t = g1_value + x
    num = x + (2 * eps - x * x) * t + t**3
    den = x * x - (2 * eps + 1) - t * t
    return -g1_value - 2 * x - 2 * (num / den)


def g3(x, g1_value, g1_deriv, eps):
    return -(g1_deriv + 2) / (g1_value + 2 * x)


def G1(x, alpha, eps1):
    den = x * x + (1 - 2 * eps1) - alpha * alpha
    return -x - alpha + 2 * ((x + alpha) / den)


def G2(x, alpha, eps1):
    G = G1(x, alpha, eps1)
    num = 2 * (alpha * alpha) - 2 * (x * x) + 2 * (2 * eps1 + 1)
    return G + num / (alpha - G - x)


def G3(x, alpha, eps1):
    G = G1(x, alpha, eps1)
    t = x + alpha
    num = t * (G * G) + (2 * eps1 - 1 + t * t) * G + (2 * eps1 - 3) * t
    den = t * t + t * G + (2 * eps1 - 1)
    return num / den

