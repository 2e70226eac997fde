"""Constructive maps between the constrained partition classes.

``franklin_map`` sends a partition with j distinct parts divisible by r to
one with j distinct parts repeated >= r times, preserving size: it strips
each divisible part and re-adjoins it as a repeat, and rewrites every
other multiplicity in base r.  ``franklin_inverse`` undoes it.  Each
direction is one loop over the pairs into one part -> pair dict, sorted
once into the list ``from_canonical`` copies.  It reuses each pair it
leaves alone and takes every new pair from ``partition.pair``, so below
the enumeration bound it allocates no pair; a partition with no part
divisible by r and none repeated r times is returned as it is.  On
partitions with no part divisible by r (no part repeated r times) nothing
is stripped, so Glaisher's bijection
``glaisher_map`` (``glaisher_inverse``) is the Franklin map restricted to
that domain, after its precondition check.  ``adjoin_and_classify`` is
the two-case adjoin map used for the double-counting arguments.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .partition import Partition, from_canonical, pair


def _check_modulus(r: int) -> None:
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")


def glaisher_map(lam: Partition, r: int) -> Partition:
    """Base-r multiplicity rewrite.

    Each part i with multiplicity s = sum(a_v * r^v) becomes parts i*r^v
    with multiplicity a_v.  Requires no part of ``lam`` divisible by r;
    the image has no part repeated r or more times.
    """
    _check_modulus(r)
    for part, _ in lam:
        if part % r == 0:
            raise ValueError(f"part {part} is divisible by {r}")
    return franklin_map(lam, r)


def glaisher_inverse(mu: Partition, r: int) -> Partition:
    """Inverse rewrite: part s*r^v (s not divisible by r) with multiplicity
    a contributes a*r^v copies of s.  Requires no part repeated >= r times."""
    _check_modulus(r)
    for part, mult in mu:
        if mult >= r:
            raise ValueError(f"part {part} is repeated {mult} >= {r} times")
    return franklin_inverse(mu, r)


def franklin_map(lam: Partition, r: int) -> Partition:
    """Map a partition with j distinct parts divisible by r to one with j
    distinct parts repeated >= r times, preserving size.

    Each part (m*r)^k is stripped and adjoined as m^(k*r); every other
    part i^s goes through Glaisher's rewrite, s = sum(a_v * r^v) giving
    (i*r^v)^(a_v).  The image is the multiset union of the two.
    """
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    out: dict[int, tuple[int, int]] = {}
    fixed = True
    for pm in lam:
        part, mult = pm
        if part % r == 0:
            fixed = False
            part //= r
            mult *= r
            pm = pair(part, mult)
        elif mult >= r:
            fixed = False
            # emit the low base-r digits; the top digit is added below
            while mult >= r:
                digit = mult % r
                if digit:
                    out[part] = pair(part, out[part][1] + digit
                                     if part in out else digit)
                mult //= r
                part *= r
            pm = pair(part, mult)
        out[part] = pair(part, out[part][1] + mult) if part in out else pm
    return lam if fixed else from_canonical(sorted(out.values(), reverse=True))


def franklin_inverse(mu: Partition, r: int) -> Partition:
    """Inverse of ``franklin_map``: each part with multiplicity
    a = k*r + d gives (part*r)^k, and its remainder d, written as
    part = s*r^v with s not divisible by r, gives s^(d*r^v)."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    out: dict[int, tuple[int, int]] = {}
    fixed = True
    for pm in mu:
        part, mult = pm
        if mult >= r:
            fixed = False
            # part*r is divisible by r and every folded part is not, and
            # distinct parts give distinct part*r: no collision
            out[part * r] = pair(part * r, mult // r)
            mult %= r
            if not mult:
                continue
            pm = pair(part, mult)
        if part % r == 0:
            fixed = False
            while part % r == 0:
                part //= r
                mult *= r
            pm = pair(part, mult)
        out[part] = pair(part, out[part][1] + mult) if part in out else pm
    return mu if fixed else from_canonical(sorted(out.values(), reverse=True))


class ZetaCase(enum.Enum):
    """Which case the adjoin map lands in."""

    COLLIDES_EXISTING = "collides_existing"  # the distinguished value is some m_t
    FRESH_PART = "fresh_part"                # all adjoined values are new


class ZetaOutcome(NamedTuple):
    """Result of the adjoin-and-classify map.

    ``collided_index`` is the 0-based position in the m tuple that the
    source partition's distinguished value collided with; present only in
    the COLLIDES_EXISTING case.
    """

    image: Partition
    case: ZetaCase
    collided_index: int | None = None


def _check_mk(m_vec, k_vec):
    m_vec, k_vec = tuple(m_vec), tuple(k_vec)
    if len(m_vec) != len(k_vec):
        raise ValueError("m and k tuples must have equal length")
    if any(m <= 0 for m in m_vec) or any(k <= 0 for k in k_vec):
        raise ValueError("m and k components must be positive")
    if any(a >= b for a, b in zip(m_vec, m_vec[1:])):
        raise ValueError(f"m must be strictly increasing, got {m_vec}")
    return m_vec, k_vec


def adjoin_and_classify(mu: Partition, r: int, m_vec, k_vec,
                        variant: str = "divisible_parts") -> ZetaOutcome:
    """Adjoin fixed blocks to ``mu`` and report which class the image hits.

    variant 'divisible_parts': mu must have exactly one distinct part
    divisible by r; adjoins (m_i*r)^(k_i).  The image has j = len(m_vec)
    distinct divisible parts if mu's divisible part is some m_t*r
    (COLLIDES_EXISTING), else j+1 (FRESH_PART).

    variant 'repeated_mults': mu must have exactly one part with
    multiplicity in [r+1, 2r-1] and all others below r; adjoins
    m_i^(r*k_i).  The image has j distinct over-repeated parts if the
    distinguished part equals some m_t, else j+1.
    """
    _check_modulus(r)
    m_vec, k_vec = _check_mk(m_vec, k_vec)
    if variant == "divisible_parts":
        divisible = [p for p, _ in mu if p % r == 0]
        if len(divisible) != 1:
            raise ValueError(
                f"expected exactly one distinct part divisible by {r}, "
                f"found {len(divisible)}")
        distinguished = divisible[0] // r
        block = Partition((m * r, k) for m, k in zip(m_vec, k_vec))
    elif variant == "repeated_mults":
        window = [p for p, m in mu if r + 1 <= m <= 2 * r - 1]
        outside = [p for p, m in mu if m >= r and not
                   (r + 1 <= m <= 2 * r - 1)]
        if len(window) != 1 or outside:
            raise ValueError(
                "expected exactly one part with multiplicity in "
                f"[{r + 1}, {2 * r - 1}] and all others below {r}")
        distinguished = window[0]
        block = Partition((m, r * k) for m, k in zip(m_vec, k_vec))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    image = mu.union(block)
    if distinguished in m_vec:
        return ZetaOutcome(image, ZetaCase.COLLIDES_EXISTING,
                           m_vec.index(distinguished))
    return ZetaOutcome(image, ZetaCase.FRESH_PART)
