"""Scalar reference loops of the jet kernels, for one expansion point.

These are the loops the vectorized kernels of `susypainleve.jets` replaced,
kept verbatim over tuples of floats: the k, j order of every Leibniz sum,
the operand order `(C(k, j) * a[j]) * b[k - j]`, a sum that starts from 0.0
(or from a[k]), exp, log and sqrt through `math`, and series composition
that skips a zero coefficient.  They share no code with the package, so a
kernel that regroups its sums (a matmul, `einsum`, `np.add.reduceat`) fails
a bitwise comparison against them.  Each takes and returns tuples of floats;
none checks a pole or domain guard.  The one exception is `old_pow`, the
loop that `Jet.__pow__` replaced, kept over the package's jets (masks
included) and its `jet_mul`, which the loops here pin.
"""

import math


def ref_mul(ad, bd):
    out = []
    for k in range(len(ad)):
        s = 0.0
        for j in range(k + 1):
            s = s + math.comb(k, j) * ad[j] * bd[k - j]
        out.append(s)
    return tuple(out)


def ref_div(ad, bd):
    q = []
    for k in range(len(ad)):
        s = ad[k]
        for j in range(k):
            s = s - math.comb(k, j) * q[j] * bd[k - j]
        q.append(s / bd[0])
    return tuple(q)


def ref_exp(ad):
    e = [math.exp(ad[0])]
    for k in range(1, len(ad)):
        s = 0.0
        for j in range(k):
            s = s + math.comb(k - 1, j) * e[j] * ad[k - j]
        e.append(s)
    return tuple(e)


def ref_ln(ad):
    log0 = math.log(ad[0])
    if len(ad) == 1:
        return (log0,)
    return (log0,) + ref_div(ad[1:], ad[:-1])


def ref_sqrt(ad):
    s = [math.sqrt(ad[0])]
    for k in range(1, len(ad)):
        acc = ad[k]
        for j in range(1, k):
            acc = acc - math.comb(k, j) * s[j] * s[k - j]
        s.append(acc / (2.0 * s[0]))
    return tuple(s)


def ref_compose(outer, inner):
    K = len(outer) - 1
    fact = [math.factorial(k) for k in range(K + 1)]
    A = [outer[k] / fact[k] for k in range(K + 1)]
    B = [0.0] + [inner[k] / fact[k] for k in range(1, K + 1)]

    def poly_mul(p, q):
        out = [0.0] * (K + 1)
        for i, pi in enumerate(p):
            if pi == 0.0:
                continue
            for j, qj in enumerate(q):
                if i + j > K:
                    break
                out[i + j] = out[i + j] + pi * qj
        return out

    comp = [A[K]] + [0.0] * K
    for k in range(K - 1, -1, -1):
        comp = poly_mul(comp, B)
        comp[0] = comp[0] + A[k]
    return tuple(comp[k] * fact[k] for k in range(K + 1))


def old_pow(jet, n):
    """The constant jet 1 times `jet`, n times over: a -0.0 entry of `jet` comes out +0.0."""
    from susypainleve.jets import jet_const, jet_mul

    out = jet_const(1.0, jet.order)
    for _ in range(n):
        out = jet_mul(out, jet)
    return out
