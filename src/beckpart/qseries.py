"""Exact truncated bivariate power series in q and w.

Coefficients are integers; q-degree is truncated at N and w-degree at J.
Truncation is closed under ring operations (degrees only ever add), so
every kept coefficient is exact.  ``series`` realizes the generating
functions whose [q^n w^j] coefficients reproduce the class totals of the
identities module (its part-value dynamic program); cross-checking the
two routes coefficientwise is the point of this module.

As in the paper's analytic proof, every table is the class's count
product C(q, w) times a per-part multiplier.  ``KINDS`` names the family
whose count product each kind uses; ``multiplier`` writes the kind's
sparse sum over part values straight into a table; ``series`` is their
one dense product.  The count product is applied to one table factor by
factor in place.  The tests build the same product forms one general
product at a time, as the reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

# Caps both truncation orders, N and J; matches the enumeration bound, and
# beyond it the dense tables stop being desk scale.
MAX_Q_ORDER = 120

# Count products cached per (family, r, N, J); one CLI run needs a handful
# of keys.
SERIES_CACHE_SIZE = 32

# kind -> (family of its count product, whether it takes a residue t), in
# the order `beckpart series --which` lists them.
KINDS = {
    "count-O": ("O", False),
    "count-D": ("D", False),
    "congruent-parts": ("O", True),
    "residual-depth": ("D", True),
    "divisible-parts": ("O", False),
    "nonresidual-sum": ("D", False),
    "distinct-O": ("O", False),
    "distinct-D": ("D", False),
    "beck-delta": ("O", True),
    "repeat-window": ("D", False),
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

    def _check_compatible(self, other: "Series") -> None:
        if self.N != other.N or self.J != other.J:
            raise ValueError(
                f"mismatched truncation bounds: ({self.N},{self.J}) vs "
                f"({other.N},{other.J})")

    def __getitem__(self, key: tuple[int, int]) -> int:
        n, j = key
        return self.c[n][j]

    def items(self):
        """Nonzero (n, j, coefficient) triples."""
        for n, row in enumerate(self.c):
            for j, v in enumerate(row):
                if v:
                    yield n, j, v

    def nnz(self) -> int:
        return sum(1 for row in self.c for v in row if v)

    def __mul__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        # iterate the sparser operand's nonzeros against the other's table
        a, b = (self, other) if self.nnz() >= other.nnz() else (other, self)
        N, J = self.N, self.J
        out = [[0] * (J + 1) for _ in range(N + 1)]
        ac = a.c
        for n2, j2, v2 in b.items():
            for n1 in range(N - n2 + 1):
                row = ac[n1]
                orow = out[n1 + n2]
                for j1 in range(J - j2 + 1):
                    v1 = row[j1]
                    if v1:
                        orow[j1 + j2] += v1 * v2
        return Series(N, J, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.N == other.N
                and self.J == other.J and self.c == other.c)

    def __repr__(self) -> str:
        terms = [f"{v}*q^{n}*w^{j}" for n, j, v in self.items()]
        head = " + ".join(terms[:6])
        if len(terms) > 6:
            head += f" + ... ({len(terms)} terms)"
        return f"Series(N={self.N}, J={self.J}, {head or '0'})"


def one(N: int, J: int) -> Series:
    s = Series(N, J)
    s.c[0][0] = 1
    return s


def _add_marked_run(c: list[list[int]], p: int, first: int, sign: int = 1,
                    i_min: int = 0, dj: int = 0) -> None:
    """Add sign * w^dj * sum_{i >= i_min} (1-w)^i q^(first + p*i) into the
    table c, truncated to its bounds."""
    top = len(c[0]) - 1 - dj
    for i, n in enumerate(range(first + p * i_min, len(c), p), i_min):
        row = c[n]
        for k in range(min(i, top) + 1):
            v = comb(i, k)
            row[k + dj] += -sign * v if k % 2 else sign * v


def _divide_by_one_minus(c: list[list[int]], k: int) -> None:
    """c *= 1/(1 - q^k) in place: an ascending running sum with stride k."""
    for n in range(k, len(c)):
        c[n] = [a + b for a, b in zip(c[n], c[n - k])]


def _times_one_minus(c: list[list[int]], k: int) -> None:
    """c *= (1 - q^k) in place, descending so each row reads the old one."""
    for n in range(len(c) - 1, k - 1, -1):
        c[n] = [a - b for a, b in zip(c[n], c[n - k])]


def _times_marked_step(c: list[list[int]], p: int) -> None:
    """c *= (1 - (1-w)q^p) in place: descending, and the w*q^p term moves
    row n - p one unit up in w (its top entry falls past J)."""
    for n in range(len(c) - 1, p - 1, -1):
        below = c[n - p]
        c[n] = [a - b + u for a, b, u in zip(c[n], below, [0] + below[:-1])]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _count_series(family: str, r: int, N: int, J: int) -> Series:
    """C(q, w): [q^n w^j] = size of the exactly-j class of the family."""
    s = one(N, J)
    c = s.c
    for m in range(1, N // r + 1):
        # 1 + w*q^(rm)/(1 - q^(rm)) = (1 - (1-w)q^(rm)) / (1 - q^(rm))
        _times_marked_step(c, r * m)
        _divide_by_one_minus(c, r * m)
    if family == "O":
        for k in range(1, N + 1):
            if k % r:
                _divide_by_one_minus(c, k)
    else:
        for k in range(1, N + 1):
            # 1 + q^k + ... + q^((r-1)k) = (1 - q^(rk)) / (1 - q^k)
            _times_one_minus(c, r * k)
            _divide_by_one_minus(c, k)
    return s


def multiplier(kind: str, r: int, t: int | None, N: int, J: int) -> Series:
    """The sparse sum over part values that turns the count product of
    ``KINDS[kind]``'s family into the kind's table; takes the arguments
    ``series`` accepts."""
    if kind in ("count-O", "count-D"):
        return one(N, J)
    s = Series(N, J)
    c = s.c
    if kind in ("congruent-parts", "residual-depth"):
        # sum_m q^(tm)/(1 - q^(rm)), less sum_m q^(rm)/(1 - q^(rm)) for
        # the depth
        for m in range(1, N // t + 1):
            for n in range(t * m, N + 1, r * m):
                c[n][0] += 1
            if kind == "residual-depth":
                for n in range(r * m, N + 1, r * m):
                    c[n][0] -= 1
    elif kind in ("divisible-parts", "nonresidual-sum"):
        # sum_m w*q^p / ((1 - (1-w)q^p) (1 - q^p)) with p = rm, times r
        # for the nonresidual sum: [q^(p*i) w^k] of the quotient is
        # (-1)^k C(i+1, k+1), shifted by w*q^p
        factor = 1 if kind == "divisible-parts" else r
        for p in range(r, N + 1, r):
            for i, n in enumerate(range(p, N + 1, p)):
                row = c[n]
                for k in range(min(i, J - 1) + 1):
                    v = factor * comb(i + 1, k + 1)
                    row[k + 1] += -v if k % 2 else v
    elif kind == "distinct-O":
        for m in range(1, N + 1):
            if m % r:
                c[m][0] += 1
        for p in range(r, N + 1, r):
            _add_marked_run(c, p, p, dj=1)  # w*q^p / (1 - (1-w)q^p)
    elif kind == "distinct-D":
        for m in range(1, N + 1):
            # 1 - (1 - q^m) / (1 - (1-w)q^(rm))
            _add_marked_run(c, r * m, m)
            _add_marked_run(c, r * m, 0, sign=-1, i_min=1)
    elif kind == "beck-delta":
        # the same sum for every admissible t, which the tests assert
        for p in range(r, N + 1, r):
            _add_marked_run(c, p, 0, i_min=1)  # (1-w)q^p / (1 - (1-w)q^p)
    else:  # repeat-window
        # The D product's factor for part m is
        # F_m = (1 - (1-w)q^(rm)) / (1 - q^m), so the product over k != m
        # is C * (1 - q^m) / (1 - (1-w)q^(rm)); the window
        # q^((r+1)m) + ... + q^((2r-1)m) times (1 - q^m) is
        # q^((r+1)m) - q^(2rm).
        for m in range(1, N // (r + 1) + 1):
            _add_marked_run(c, r * m, (r + 1) * m)
            _add_marked_run(c, r * m, 2 * r * m, sign=-1)
    return s


def series(kind: str, r: int, t: int | None, N: int, J: int) -> Series:
    """[q^n w^j] = the kind's total over the exactly-j class of its family
    at size n (the exactly-(j+1) class for repeat-window)."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if kind not in KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    family, needs_t = KINDS[kind]
    if needs_t and (t is None or not 1 <= t <= r - 1):
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")
    if not needs_t and t is not None:
        raise ValueError(f"{kind} takes no t, got {t}")
    return _count_series(family, r, N, J) * multiplier(kind, r, t, N, J)
