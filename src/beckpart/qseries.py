"""Exact truncated bivariate power series in q and w.

Coefficients are integers; q-degree is truncated at N and w-degree at J.
Truncation is closed under ring operations (degrees only ever add), so
every kept coefficient is exact.  The builders at the bottom realize the
generating functions whose [q^n w^j] coefficients reproduce the class
totals of the identities module (its part-value dynamic program);
cross-checking the two routes coefficientwise is the point of this module.

Each builder's table is one dense product: a count prefactor times a
sparse multiplier.  The prefactor is the product form of the class's
generating function, applied to one table factor by factor in place; the
multiplier's sum over part values is written straight into a second
table.  The public factor helpers (``geometric_factor``,
``repeat_marker``, ``finite_run``, ``marked_geometric``) spell out the
same product forms one general product at a time.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

# Caps both truncation orders, N and J; matches the enumeration bound, and
# beyond it the dense tables stop being desk scale.
MAX_Q_ORDER = 120

# Builders cached per (family, r, N, J) or (r, N, J); one CLI run needs a
# handful of keys.
SERIES_CACHE_SIZE = 32


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

    def copy(self) -> "Series":
        return Series(self.N, self.J, [row[:] for row in self.c])

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

    def __add__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series(self.N, self.J,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.c, other.c)])

    def __sub__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series(self.N, self.J,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.c, other.c)])

    def scale(self, factor: int) -> "Series":
        return Series(self.N, self.J,
                      [[factor * v for v in row] for row in self.c])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
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

    __rmul__ = __mul__

    def shift(self, dn: int, dj: int = 0) -> "Series":
        """Multiply by q^dn w^dj; coefficients past the bounds are dropped."""
        out = Series(self.N, self.J)
        for n, j, v in self.items():
            if n + dn <= self.N and j + dj <= self.J:
                out.c[n + dn][j + dj] = v
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.N == other.N
                and self.J == other.J and self.c == other.c)

    def __repr__(self) -> str:
        terms = [f"{v}*q^{n}*w^{j}" for n, j, v in self.items()]
        head = " + ".join(terms[:6])
        if len(terms) > 6:
            head += f" + ... ({len(terms)} terms)"
        return f"Series(N={self.N}, J={self.J}, {head or '0'})"


def zero(N: int, J: int) -> Series:
    return Series(N, J)


def one(N: int, J: int) -> Series:
    s = Series(N, J)
    s.c[0][0] = 1
    return s


def monomial(N: int, J: int, n: int, j: int = 0, coeff: int = 1) -> Series:
    s = Series(N, J)
    if n <= N and j <= J:
        s.c[n][j] = coeff
    return s


def geometric_factor(k: int, N: int, J: int) -> Series:
    """1/(1 - q^k) = 1 + q^k + q^(2k) + ..."""
    if k < 1:
        raise ValueError(f"exponent k must be >= 1, got {k}")
    s = Series(N, J)
    for i in range(0, N // k + 1):
        s.c[i * k][0] = 1
    return s


def repeat_marker(p: int, N: int, J: int) -> Series:
    """1 + w*q^p/(1 - q^p): one distinct part value p, marked by w."""
    if p < 1:
        raise ValueError(f"part value p must be >= 1, got {p}")
    s = one(N, J)
    if J >= 1:
        for i in range(1, N // p + 1):
            s.c[i * p][1] = 1
    return s


def finite_run(p: int, r: int, N: int, J: int) -> Series:
    """1 + q^p + ... + q^((r-1)p): part p with multiplicity below r."""
    s = Series(N, J)
    for d in range(r):
        if d * p > N:
            break
        s.c[d * p][0] = 1
    return s


def one_minus_w(N: int, J: int) -> Series:
    s = one(N, J)
    if J >= 1:
        s.c[0][1] = -1
    return s


def marked_geometric(p: int, N: int, J: int) -> Series:
    """1/(1 - (1-w)*q^p) = sum_i (1-w)^i q^(p*i), with (1-w)^i expanded
    to a w-polynomial and truncated at degree J."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    s = Series(N, J)
    for i in range(0, N // p + 1):
        row = s.c[i * p]
        for sgn in range(min(i, J) + 1):
            row[sgn] = -comb(i, sgn) if sgn % 2 else comb(i, sgn)
    return s


def _add_marked_run(c: list[list[int]], p: int, first: int, sign: int = 1,
                    i_min: int = 0, dj: int = 0) -> None:
    """Add sign * w^dj * sum_{i >= i_min} (1-w)^i q^(first + p*i) into the
    table c, truncated to its bounds.  ``marked_geometric`` keeps its own
    loop because the tests build the builders' reference from it."""
    top = len(c[0]) - 1 - dj
    for i, n in enumerate(range(first + p * i_min, len(c), p), i_min):
        row = c[n]
        for k in range(min(i, top) + 1):
            v = comb(i, k)
            row[k + dj] += -sign * v if k % 2 else sign * v


def lambert_by_parts(r: int, t: int, N: int, J: int) -> Series:
    """sum over parts p = t, t+r, t+2r, ... of q^p/(1 - q^p)."""
    s = Series(N, J)
    for p in range(t, N + 1, r):
        for i in range(1, N // p + 1):
            s.c[i * p][0] += 1
    return s


def lambert_by_mult(r: int, t: int, N: int, J: int) -> Series:
    """sum over m >= 1 of q^(t*m)/(1 - q^(r*m)); equals
    ``lambert_by_parts(r, t, ...)`` as a truncated series."""
    s = Series(N, J)
    m = 1
    while t * m <= N:
        e = t * m
        while e <= N:
            s.c[e][0] += 1
            e += r * m
        m += 1
    return s


def _check_r(r: int) -> None:
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")


def _check_t(r: int, t: int) -> None:
    if not 1 <= t <= r - 1:
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")


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
    s = one(N, J)
    c = s.c
    for m in range(1, N // r + 1):
        # repeat_marker(rm) = (1 - (1-w)q^(rm)) / (1 - q^(rm))
        _times_marked_step(c, r * m)
        _divide_by_one_minus(c, r * m)
    if family == "O":
        for k in range(1, N + 1):
            if k % r:
                _divide_by_one_minus(c, k)
    else:
        for k in range(1, N + 1):
            # finite_run(k, r) = (1 - q^(rk)) / (1 - q^k)
            _times_one_minus(c, r * k)
            _divide_by_one_minus(c, k)
    return s


def count_series(family: str, r: int, N: int, J: int) -> Series:
    """[q^n w^j] = size of the exactly-j class of the family at size n."""
    _check_r(r)
    if family not in ("O", "D"):
        raise ValueError(f"family must be 'O' or 'D', got {family!r}")
    return _count_series(family, r, N, J).copy()


def congruent_parts_series(r: int, t: int, N: int, J: int) -> Series:
    """[q^n w^j] = total parts congruent to t mod r over the exactly-j
    O-class."""
    _check_r(r)
    _check_t(r, t)
    return _count_series("O", r, N, J) * lambert_by_mult(r, t, N, J)


def residual_depth_series(r: int, t: int, N: int, J: int) -> Series:
    """[q^n w^j] = total distinct parts with residual multiplicity >= t
    over the exactly-j D-class."""
    _check_r(r)
    _check_t(r, t)
    s = Series(N, J)
    m = 1
    while t * m <= N:  # sum_m (q^(t*m) - q^(r*m)) / (1 - q^(r*m))
        e = t * m
        while e <= N:
            s.c[e][0] += 1
            e += r * m
        e = r * m
        while e <= N:
            s.c[e][0] -= 1
            e += r * m
        m += 1
    return _count_series("D", r, N, J) * s


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _marked_block_sum(r: int, N: int, J: int) -> Series:
    """sum_m w*q^(r*m) / ((1 - (1-w)q^(r*m)) (1 - q^(r*m)))."""
    s = Series(N, J)
    for m in range(1, N // r + 1):
        p = r * m
        # [q^(p*i) w^k] of 1/((1 - q^p)(1 - (1-w)q^p)) is
        # (-1)^k C(i+1, k+1); the term is shifted by w*q^p
        for i, n in enumerate(range(p, N + 1, p)):
            row = s.c[n]
            for k in range(min(i, J - 1) + 1):
                v = comb(i + 1, k + 1)
                row[k + 1] += -v if k % 2 else v
    return s


def divisible_parts_series(r: int, N: int, J: int) -> Series:
    """[q^n w^j] = total parts divisible by r over the exactly-j O-class."""
    _check_r(r)
    return _count_series("O", r, N, J) * _marked_block_sum(r, N, J)


def nonresidual_sum_series(r: int, N: int, J: int) -> Series:
    """[q^n w^j] = total nonresidual multiplicity over the exactly-j
    D-class."""
    _check_r(r)
    return _count_series("D", r, N, J) * _marked_block_sum(r, N, J).scale(r)


def distinct_parts_series(family: str, r: int, N: int, J: int) -> Series:
    """[q^n w^j] = total distinct parts over the exactly-j class."""
    _check_r(r)
    if family not in ("O", "D"):
        raise ValueError(f"family must be 'O' or 'D', got {family!r}")
    s = Series(N, J)
    if family == "O":
        for m in range(1, N + 1):
            if m % r:
                s.c[m][0] += 1
        for m in range(1, N // r + 1):
            # w*q^(rm) / (1 - (1-w)q^(rm))
            _add_marked_run(s.c, r * m, r * m, dj=1)
    else:
        for m in range(1, N + 1):
            # 1 - (1 - q^m) / (1 - (1-w)q^(rm))
            #   = q^m * marked_geometric(rm) - (marked_geometric(rm) - 1)
            _add_marked_run(s.c, r * m, m)
            _add_marked_run(s.c, r * m, 0, sign=-1, i_min=1)
    return _count_series(family, r, N, J) * s


def beck_delta_series(r: int, t: int, N: int, J: int) -> Series:
    """[q^n w^j] = the modular part-count gap at (n, j); the closed form is
    the same for every admissible t, which is asserted in tests."""
    _check_r(r)
    _check_t(r, t)
    s = Series(N, J)
    for m in range(1, N // r + 1):
        # (1-w)q^(rm)/(1 - (1-w)q^(rm)) = marked_geometric - 1
        _add_marked_run(s.c, r * m, 0, i_min=1)
    return _count_series("O", r, N, J) * s


def repeat_window_series(r: int, N: int, J: int) -> Series:
    """[q^n w^j] = repeat-window total over the exactly-(j+1) D-class.

    The D product's factor for part m is
    F_m = repeat_marker(rm) * finite_run(m, r) = (1 - (1-w)q^(rm))/(1 - q^m),
    so the product over k != m is count-D * (1 - q^m) * marked_geometric(rm).
    The window q^((r+1)m) + ... + q^((2r-1)m) times (1 - q^m) is
    q^((r+1)m) - q^(2rm), so the total is count-D times
    sum_m (q^((r+1)m) - q^(2rm)) * marked_geometric(rm).
    """
    _check_r(r)
    s = Series(N, J)
    for m in range(1, N // (r + 1) + 1):
        _add_marked_run(s.c, r * m, (r + 1) * m)
        _add_marked_run(s.c, r * m, 2 * r * m, sign=-1)
    return _count_series("D", r, N, J) * s
