"""Exact truncated bivariate power series in q and w.

Coefficients are integers; q-degree is truncated at N and w-degree at J.
Truncation is closed under ring operations (degrees only ever add), so
every kept coefficient is exact.  ``series`` realizes the generating
functions whose [q^n w^j] coefficients reproduce the class totals of the
identities module (its part-value dynamic program); cross-checking the
two routes coefficientwise is the point of this module.

As in the paper's analytic proof, every table is the count product
C(q, w) = prod_m (1 - (1-w)q^(rm)) / prod_k (1 - q^k) times a per-part
multiplier.  That the O and D families share C is Franklin's identity,
so a kind's family changes nothing but its multiplier.
``multiplier`` writes the kind's sparse sum over part values as packed
rows, one integer per power of q; ``series`` multiplies them in place by
all of C's marked factors at once through Euler's expansion of
prod_m (1 + z y^m), one pass per term (about sqrt(2N/r) terms), divides
by prod_k (1 - q^k) in one recurrence from Euler's pentagonal number
theorem, and reads each row's 64-bit lanes back, offset so that no lane
borrows, in one native int64 cast.  The tests build each family's product
from its own per-part factors as reference.
"""

from __future__ import annotations

import sys

# Caps both truncation orders, N and J: up to it the dense tables stay at
# desk scale, and the 64-bit lanes below hold every coefficient to N = 316.
MAX_Q_ORDER = 120

# kind -> whether it takes a residue t, in `beckpart series --which` order;
# the comment names the family whose classes the kind totals over.
KINDS = {
    "count-O": False,  # O
    "count-D": False,  # D
    "congruent-parts": True,  # O
    "residual-depth": True,  # D
    "divisible-parts": False,  # O
    "nonresidual-sum": False,  # D
    "distinct-O": False,  # O
    "distinct-D": False,  # D
    "beck-delta": True,  # O
    "repeat-window": False,  # D
}


class Series:
    """Dense table c[n][j] of integer coefficients of q^n w^j."""

    __slots__ = ("N", "J", "c")

    def __init__(self, N: int, J: int, table: list[list[int]] | None = None):
        if N < 0 or J < 0:
            raise ValueError("truncation orders must be non-negative")
        if N > MAX_Q_ORDER:
            raise ValueError(f"q-truncation {N} exceeds cap {MAX_Q_ORDER}")
        if J > MAX_Q_ORDER:
            raise ValueError(f"w-truncation {J} exceeds cap {MAX_Q_ORDER}")
        self.N = N
        self.J = J
        self.c = table if table is not None else [
            [0] * (J + 1) for _ in range(N + 1)]

    def __getitem__(self, key: tuple[int, int]) -> int:
        n, j = key
        return self.c[n][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.N == other.N
                and self.J == other.J and self.c == other.c)


# A row c[n] is packed as X[n] = sum_j c[n][j] 2^(64j) mod 2^(64(J+1)):
# w is 2^64, so multiplying a row by a polynomial in w is big-int
# arithmetic, and the modulus M + 1 = 2^(64(J+1)) drops only w^(J+1) and
# up.  Intermediate rows may be any size; only the final coefficients must
# fit a signed 64-bit lane.  Each is a class total or a difference of two,
# so |c| <= max(1, n*p(n)).  By the exact p(n), n*p(n) < 2^63 holds for
# every n <= 316 and fails at 317, so 64-bit lanes hold every table up to
# MAX_Q_ORDER; tests/test_qseries.py's
# test_64_bit_lanes_fit_every_coefficient_bound_to_316 pins 316 and the cap.


def _add_marked_run(X: list[int], M: int, p: int, first: int,
                    term: int) -> None:
    """Add term * sum_{i >= 0} (1-w)^i q^(first + p*i) into the packed rows
    X, term a packed row itself (1, w or 1-w times a sign or a factor): one
    masked add per row, and the term steps by (1-w)."""
    for n in range(first, len(X), p):
        X[n] = (X[n] + term) & M
        term = (term - (term << 64)) & M


def _unpack(X: list[int], J: int) -> list[list[int]]:
    """The rows c[n] of the packed rows X[n], as signed 64-bit lanes.
    Adding 2^63 to every lane makes each one non-negative, so no lane
    borrows from the next; flipping bit 63 back leaves every lane in two's
    complement, which one native int64 cast per row reads."""
    size = 8 * (J + 1)
    M = (1 << 8 * size) - 1
    top = M // 0xFFFF_FFFF_FFFF_FFFF << 63  # bit 63 of every lane
    return [memoryview((((x + top) & M) ^ top).to_bytes(size, sys.byteorder))
            .cast("q").tolist() for x in X]


def _times_count_product(X: list[int], r: int, M: int) -> None:
    """X *= C(q, w) in place ([q^n w^j] of C counts either family's
    exactly-j class).  The marked factors come from Euler's identity
    prod_{m>=1} (1 + z y^m) = sum_k z^k y^(k(k+1)/2) / ((1-y)...(1-y^k))
    (Andrews, The Theory of Partitions, ch. 2, Cor. 2.2) with z = w - 1
    and y = q^r.  The work rows Z step from term k-1 to term k in one
    ascending pass, which multiplies by w - 1 (z << 64 is w*z) and divides
    by 1 - q^(rk), and are added into X at q^off, off = r*k(k+1)/2, while
    off <= N.  Then one ascending recurrence divides by prod_k (1 - q^k)
    = sum_i (-1)^i q^(i(3i-1)/2) over all integers i (Euler's pentagonal
    theorem; ibid., ch. 1), exact as its constant term is 1:
    X[n] += X[n-1] + X[n-2] - X[n-5] ..."""
    N = len(X) - 1
    Z, k, off = X[:N + 1 - r], 1, r
    while off <= N:
        s = r * k
        for n in range(N + 1 - off):  # Z's rows past N - off never reach X
            z = Z[n]
            Z[n] = z = ((z << 64) - z + (Z[n - s] if n >= s else 0)) & M
            X[n + off] += z
        k += 1
        off += r * k
    plus, minus = [], []  # the generalized pentagonal numbers by sign
    for i in range(1, N + 1):
        (plus if i % 2 else minus).extend((i * (3 * i - 1) // 2,
                                           i * (3 * i + 1) // 2))
    for n in range(1, N + 1):
        x = X[n]
        for g in plus:
            if g > n:
                break
            x += X[n - g]
        for g in minus:
            if g > n:
                break
            x -= X[n - g]
        X[n] = x & M


def multiplier(kind: str, r: int, t: int | None, N: int, M: int) -> list[int]:
    """The sparse sum over part values that turns the count product into
    the kind's table, as the packed rows q^0..q^N under the mask M."""
    X, w = [0] * (N + 1), 1 << 64
    if kind in ("count-O", "count-D"):
        X[0] = 1
        return X
    if kind in ("congruent-parts", "residual-depth"):
        # sum_m q^(tm)/(1 - q^(rm)), less sum_m q^(rm)/(1 - q^(rm)) for
        # the depth
        for m in range(1, N // t + 1):
            for n in range(t * m, N + 1, r * m):
                X[n] += 1
            if kind == "residual-depth":
                for n in range(r * m, N + 1, r * m):
                    X[n] -= 1
    elif kind in ("divisible-parts", "nonresidual-sum"):
        # sum_m w*q^p / ((1 - (1-w)q^p) (1 - q^p)) with p = rm, times r
        # for the nonresidual sum; by partial fractions each term is
        # q^p/(1 - q^p) - (1-w)q^p / (1 - (1-w)q^p)
        factor = 1 if kind == "divisible-parts" else r
        for p in range(r, N + 1, r):
            for n in range(p, N + 1, p):
                X[n] += factor
            _add_marked_run(X, M, p, p, -factor * (1 - w))
    elif kind == "distinct-O":
        for m in range(1, N + 1):
            if m % r:
                X[m] += 1
        for p in range(r, N + 1, r):
            _add_marked_run(X, M, p, p, w)  # w*q^p / (1 - (1-w)q^p)
    elif kind == "distinct-D":
        for m in range(1, N + 1):
            # 1 - (1 - q^m) / (1 - (1-w)q^(rm))
            _add_marked_run(X, M, r * m, m, 1)
            _add_marked_run(X, M, r * m, r * m, w - 1)
    elif kind == "beck-delta":
        # the same sum for every admissible t, which the tests assert
        for p in range(r, N + 1, r):
            _add_marked_run(X, M, p, p, 1 - w)  # (1-w)q^p / (1 - (1-w)q^p)
    else:  # repeat-window
        # the D product's factor for part m is (1 - (1-w)q^(rm)) / (1 - q^m);
        # swapping it for the window q^((r+1)m) + ... + q^((2r-1)m)
        # multiplies C by (q^((r+1)m) - q^(2rm)) / (1 - (1-w)q^(rm))
        for m in range(1, N // (r + 1) + 1):
            _add_marked_run(X, M, r * m, (r + 1) * m, 1)
            _add_marked_run(X, M, r * m, 2 * r * m, -1)
    return X


def series(kind: str, r: int, t: int | None, N: int, J: int) -> Series:
    """[q^n w^j] = the kind's total over the exactly-j class of its family
    at size n (the exactly-(j+1) class for repeat-window)."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if kind not in KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    needs_t = KINDS[kind]
    if needs_t and (t is None or not 1 <= t <= r - 1):
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")
    if not needs_t and t is not None:
        raise ValueError(f"{kind} takes no t, got {t}")
    s = Series(N, J, [])  # checks N and J; the rows are read back last
    M = (1 << 64 * (J + 1)) - 1
    X = multiplier(kind, r, t, N, M)
    _times_count_product(X, r, M)
    s.c = _unpack(X, J)
    return s
