"""Theorem statements on class totals, and the records that check them.

The paper states each identity as an equality between class totals, and
proves it both from generating functions and from the class definitions;
so a statement here reads a ``ClassTotals`` record's fields, whatever
computed it.  ``STATEMENTS`` states each theorem on one (of an Euler pair
too), and ``STATS`` names each statistic for ``stat_value``.  ``check``
is the one grid loop that makes each instance a ``VerificationRecord``,
from any table builder, as its iterator is read: ``identities.verify``
passes it ``class_totals``, and ``euler_pairs.verify_tilde`` a pair's
totals.  The module imports no other module of the package, so either
route can make the records.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple


class ClassTotals(NamedTuple):
    """Per-class totals for one n over the part sets of an Euler pair of
    order r: j maps to the total over the non-empty exactly-j class of
    each family, each field one lane (or lane vector) of the totals
    program, in lane order.  The O-class takes its parts from r*S1 and S2,
    j counting its distinct parts from r*S1; the D-class takes its parts
    from S1, j counting its distinct parts repeated at least r times.
    ``o_parts_mod[j][t]`` counts O's parts congruent to t mod r, and
    ``d_depth[j][t]`` D's distinct parts with residual multiplicity >= t.
    ``o1_tuples`` is diff3's left side: j maps to the sum of
    |O_1(n - r*w)| over the index j-tuples of weight w <= n/r, index
    parts from S1, present when that sum is non-zero."""

    o_count: dict[int, int]
    o_distinct: dict[int, int]
    o_parts_mod: dict[int, list[int]]
    d_count: dict[int, int]
    d_parts: dict[int, int]
    d_window: dict[int, int]
    d_depth: dict[int, list[int]]
    o1_tuples: dict[int, int]


def _modular_gap(tot: ClassTotals, j: int, t: int) -> int:
    o_row, d_row = tot.o_parts_mod.get(j), tot.d_depth.get(j)
    return ((o_row[t] - o_row[0]) if o_row else 0) - (d_row[t] if d_row else 0)


# stat -> value(tot, j, t) over the exactly-j class; only modular-gap reads
# the residue t.  The gaps are O minus D, except distinct-gap (D minus O).
STATS: dict[str, Callable[[ClassTotals, int, int | None], int]] = {
    "count_O": lambda tot, j, t: tot.o_count.get(j, 0),
    "count_D": lambda tot, j, t: tot.d_count.get(j, 0),
    "parts-gap": lambda tot, j, t: (sum(tot.o_parts_mod.get(j, ()))
                                    - tot.d_parts.get(j, 0)),
    # O: parts congruent to t minus parts divisible by r; D: distinct
    # parts with residual multiplicity >= t
    "modular-gap": _modular_gap,
    "distinct-gap": lambda tot, j, t: (tot.d_depth.get(j, [0])[0]
                                       - tot.o_distinct.get(j, 0)),
    # D: distinct parts with multiplicity in [r+1, 2r-1]
    "repeat-window": lambda tot, j, t: tot.d_window.get(j, 0),
}
READS_T = ("modular_refine", "modular-gap")  # theorem and stat


def t_values(name: str, r: int, t: int | str | None):
    """The residues theorem or stat ``name`` is evaluated at, modulus r:
    (None,) when it reads no t, every 1..r-1 for t = "all", else t."""
    if name not in READS_T:
        return (None,)
    if t == "all":
        return range(1, r)
    if t is None:
        raise ValueError(f"{name} requires t")
    if not 1 <= t <= r - 1:
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")
    return (t,)


def stat_value(tot: ClassTotals, stat: str, j: int, mode: str = "exact",
               t: int | None = None) -> int:
    """``STATS[stat]`` over the exactly-j class of ``tot`` (mode "exact")
    or summed over the classes j' <= j (mode "at_most")."""
    if stat not in STATS:
        raise ValueError(f"unknown stat {stat!r}")
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")
    if (t is None) == (stat in READS_T):
        raise ValueError(f"{stat} {'requires' if t is None else 'takes no'} t")
    if mode not in ("exact", "at_most"):
        raise ValueError(f"mode must be 'exact' or 'at_most', got {mode!r}")
    if t is not None:  # residue rows have length r; with none, refuse t < 1
        rows = (*tot.o_parts_mod.values(), *tot.d_depth.values())
        t_values(stat, len(rows[0]) if rows else max(t, 1) + 1, t)
    return _read(tot, stat, j, mode, t)


def _read(tot, stat, j, mode="exact", t=None):
    """``stat_value`` on arguments already checked.  A record keys each
    field by its family's non-empty classes only, and every other class
    reads 0, so "at_most" sums over the held classes j' <= j: the keys of
    the two count fields merged."""
    value = STATS[stat]
    if mode == "exact":
        return value(tot, j, t)
    return sum(value(tot, i, t) for i in tot.o_count | tot.d_count if i <= j)


class VerificationRecord(NamedTuple):
    """One theorem instance: parameters, left side, labelled right sides.
    A tuple, so it compares and unpacks as one, ``_replace`` returns a
    changed copy, and it has no per-instance ``__dict__``."""

    theorem: str
    n: int
    r: int
    j: int
    t: int | None
    lhs: int
    rhs: tuple[tuple[str, int], ...]
    ok: bool
    note: str = ""


# -- the statements: ``STATEMENTS[theorem](mark)`` builds a theorem's labels
# once, ``mark`` tagging the class names ("~" for the restricted classes), as
# statement(tot, r, j, t): on one totals record, of the unrestricted classes
# or of an Euler pair, it returns (lhs, labelled right sides, note).

def _beck(mode: str, mark: str, modular: bool = False):
    """The parts gap over r-1, noted when r-1 does not divide it, or the
    modular gap at t (modular), against (j+1)|O_{j+1}| - j|O_j| and the
    same for D (exact), or (j+1)|O_{j+1}| and (j+1)|D_{j+1}| (at_most, the
    telescoped sum)."""
    exact = mode == "exact"  # 0 or 1: the weight of the -j|X_j| terms
    o_label, d_label = (f"(j+1)|{f}{mark}_{{j+1}}|"
                        + (f"-j|{f}{mark}_j|" if exact else "") for f in "OD")

    def statement(tot, r, j, t):
        o, d = tot.o_count.get, tot.d_count.get
        rhs = ((o_label, (j + 1) * o(j + 1, 0) - exact * j * o(j, 0)),
               (d_label, (j + 1) * d(j + 1, 0) - exact * j * d(j, 0)))
        if modular:
            return _modular_gap(tot, j, t), rhs, ""
        gap = _read(tot, "parts-gap", j, mode)
        if gap % (r - 1):
            return gap, rhs, f"gap {gap} not divisible by r-1={r - 1}"
        return gap // (r - 1), rhs, ""
    return statement


def _distinct(mode: str, mark: str):
    """The distinct-count gap (D minus O) against T_{j+1} - T_j (exact) or
    T_{j+1} (at_most), T being the repeat-window total."""
    exact = mode == "exact"
    label = f"T{mark}_{{j+1}}" + (f"-T{mark}_j" if exact else "")
    return lambda tot, r, j, t: (
        _read(tot, "distinct-gap", j, mode),
        ((label, tot.d_window.get(j + 1, 0)
          - exact * tot.d_window.get(j, 0)),), "")


def _franklin(mark: str):
    label = f"|D{mark}_j|"
    return lambda tot, r, j, t: (tot.o_count.get(j, 0),
                                 ((label, tot.d_count.get(j, 0)),), "")


def _diff3(mark: str):
    label = f"(j+1)|O{mark}_{{j+1}}|-j|O{mark}_j|+sum ell_0"
    return lambda tot, r, j, t: (tot.o1_tuples.get(j, 0), ((label, (
        (j + 1) * tot.o_count.get(j + 1, 0) - j * tot.o_count.get(j, 0)
        + tot.o_parts_mod.get(j, [0])[0]),),), "")


def _nonresidual(mark: str):
    # D's nonresidual m - m % r: its parts less the depths t >= 1 reached
    label = f"sum nonresidual mult over D{mark}_j"
    return lambda tot, r, j, t: (r * tot.o_parts_mod.get(j, [0])[0], ((
        label, tot.d_parts.get(j, 0) - sum(tot.d_depth.get(j, [0])[1:])),),
        "")


# theorem id -> statement builder; o_parts_mod[j][0] totals the parts
# divisible by r over O_j
STATEMENTS = {
    "franklin": _franklin,
    "beck_main": partial(_beck, "exact"),
    "beck_cumulative": partial(_beck, "at_most"),
    "modular_refine": partial(_beck, "exact", modular=True),
    "sum_reduction": lambda mark: lambda tot, r, j, t: (
        sum(_modular_gap(tot, j, s) for s in range(1, r)),
        (("b_{j,r}(n)", _read(tot, "parts-gap", j)),), ""),
    "distinct_parts": partial(_distinct, "exact"),
    "distinct_cumulative": partial(_distinct, "at_most"),
    "diff3": _diff3,
    "nonresidual_balance": _nonresidual,
}
THEOREM_IDS = tuple(STATEMENTS)


def check(names: Iterable[tuple[str, str]], mark: str,
          totals: Callable[[int, int], list[ClassTotals]],
          n_values: Iterable[int], r_values: Iterable[int], j_max: int,
          t: int | str | None) -> Iterator[VerificationRecord]:
    """A record per instance of each (record name, theorem id) of ``names``
    over the grid, in (name, n, r, j, t) order: the theorem's statement,
    classes tagged ``mark``, on ``totals(r, n_max)[n]``.  Every argument is
    checked, each theorem's residues taken once per r (even on an empty
    grid of n) and then each r's table built once, at the largest n, when
    ``check`` is called; the records are made as they are iterated."""
    statements = [(name, theorem, STATEMENTS[theorem](mark))
                  for name, theorem in names]
    ns, rs = sorted(set(n_values)), sorted(set(r_values))
    if ns and ns[0] < 0:
        raise ValueError(f"n must be non-negative, got {ns[0]}")
    if j_max < 0:
        raise ValueError(f"class index j must be >= 0, got {j_max}")
    if rs and rs[0] < 2:
        raise ValueError(f"modulus r must be >= 2, got {rs[0]}")
    residues = {(theorem, r): t_values(theorem, r, t)
                for _, theorem, _ in statements for r in rs}
    tables = {r: totals(r, ns[-1]) for r in rs} if ns else {}
    return _records(statements, ns, rs, range(j_max + 1), tables, residues)


def _records(statements, ns, rs, js, tables, residues):
    """``check``'s records, each one tuple made in place: ok when there is
    no note and the one or two right sides (first, last) equal lhs."""
    new = tuple.__new__
    for name, theorem, statement in statements:
        for n in ns:
            for r in rs:
                tot, ts = tables[r][n], residues[theorem, r]
                for j in js:
                    for t in ts:
                        lhs, rhs, note = statement(tot, r, j, t)
                        yield new(VerificationRecord, (
                            name, n, r, j, t, lhs, rhs,
                            not note and rhs[0][1] == rhs[-1][1] == lhs,
                            note))
