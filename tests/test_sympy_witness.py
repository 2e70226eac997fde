"""A third witness for the series builders: the product forms of count-O,
count-D and beck-delta expanded by sympy's own polynomial arithmetic, which
shares no code with ``qseries``."""

import pytest
import sympy

from beckpart import qseries as qs
from helpers import terms

q, w = sympy.symbols("q w")
N, J = 40, 4


def truncate(poly):
    """Drop every monomial past q^N or w^J."""
    return sympy.Poly.from_dict(
        {m: c for m, c in poly.as_dict().items() if m[0] <= N and m[1] <= J},
        q, w)


def poly(expr):
    return truncate(sympy.Poly(expr, q, w))


def product(factors):
    s = poly(1)
    for f in factors:
        s = truncate(s * f)
    return s


def geometric(k):
    """1/(1 - q^k), truncated."""
    return poly(sum(q**(i * k) for i in range(N // k + 1)))


def repeat_marker(p):
    """1 + w q^p/(1 - q^p), truncated."""
    return poly(1 + w * sum(q**(i * p) for i in range(1, N // p + 1)))


def count_poly(family, r):
    factors = [repeat_marker(r * m) for m in range(1, N // r + 1)]
    if family == "O":
        factors += [geometric(k) for k in range(1, N + 1) if k % r]
    else:  # parts repeated fewer than r times
        factors += [poly(sum(q**(d * k) for d in range(r) if d * k <= N))
                    for k in range(1, N + 1)]
    return product(factors)


def beck_delta_multiplier(r):
    """sum_m (1-w)q^(rm)/(1 - (1-w)q^(rm)), truncated."""
    total = poly(0)
    for m in range(1, N // r + 1):
        x = poly((1 - w) * q**(r * m))
        power = x
        while not power.is_zero:
            total += power
            power = truncate(power * x)
    return total


def coefficients(s: qs.Series) -> dict:
    return {(n, j): v for n, j, v in terms(s)}


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_series_equal_sympy_product_forms(r):
    counts = {f: count_poly(f, r) for f in ("O", "D")}
    for f in ("O", "D"):
        assert coefficients(qs.series(f"count-{f}", r, None, N, J)) == \
            counts[f].as_dict(), f
    delta = truncate(counts["O"] * beck_delta_multiplier(r))
    for t in range(1, r):
        assert coefficients(qs.series("beck-delta", r, t, N, J)) == \
            delta.as_dict(), t


def test_euler_expansion_of_the_marked_product():
    # the identity that the count product's marked factors are applied
    # through (Andrews, The Theory of Partitions, ch. 2, Cor. 2.2):
    # prod_{m>=1} (1 + z y^m) = sum_k z^k y^(k(k+1)/2) / ((1-y)...(1-y^k)),
    # both sides expanded by sympy mod y^(D+1) with z symbolic
    y, z = sympy.symbols("y z")
    D = 30

    def trunc(p):
        return sympy.Poly.from_dict(
            {m: c for m, c in p.as_dict().items() if m[0] <= D}, y, z)

    lhs = sympy.Poly(1, y, z)
    for m in range(1, D + 1):
        lhs = trunc(lhs * sympy.Poly(1 + z * y**m, y, z))
    rhs = sympy.Poly(0, y, z)
    for k in range(D + 1):
        term = trunc(sympy.Poly(z**k * y**(k * (k + 1) // 2), y, z))
        for i in range(1, k + 1):  # times 1/(1 - y^i)
            term = trunc(term * sympy.Poly(
                sum(y**(i * e) for e in range(D // i + 1)), y, z))
        rhs += term
    assert lhs == rhs
    assert lhs.degree(z) == 7  # the terms k <= 7 reach y^30
