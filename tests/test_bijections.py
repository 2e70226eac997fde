from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beckpart.bijections import (ZetaCase, adjoin_and_classify,
                                 franklin_inverse, franklin_map,
                                 glaisher_inverse, glaisher_map)
from beckpart.enumeration import partitions_of
from beckpart.partition import PAIRS, Partition, classify
from helpers import (ClassSpec, assert_canonical, composed_franklin_inverse,
                     composed_franklin_map, enumerate_class,
                     enumerate_fixed_divisible, glaisher_inverse_reference,
                     glaisher_reference, index_weight_tuples,
                     partitions_avoiding_multiples,
                     partitions_with_high_multiplicity,
                     partitions_with_low_multiplicity, stats)


def test_glaisher_examples():
    assert glaisher_map(Partition.parse("3,1,1"), 2) == Partition.parse("3,2")
    assert glaisher_map(Partition.parse("2^4,1"), 3) == Partition.parse("6,2,1")
    assert glaisher_map(Partition(), 4) == Partition()


def test_glaisher_inverse_examples():
    assert glaisher_inverse(Partition.parse("3,2"), 2) == \
        Partition.parse("3,1,1")
    assert glaisher_inverse(Partition.parse("6,2,1"), 3) == \
        Partition.parse("2^4,1")
    assert glaisher_inverse(Partition(), 2) == Partition()


def test_glaisher_precondition_errors():
    with pytest.raises(ValueError, match="part 4 is divisible by 2"):
        glaisher_map(Partition.parse("4,1"), 2)
    with pytest.raises(ValueError, match="repeated 3 >= 3"):
        glaisher_inverse(Partition.parse("2^3"), 3)


@pytest.mark.parametrize("r", [2, 3, 5])
@given(lam=partitions_avoiding_multiples(2))
def test_glaisher_roundtrip_and_image_class(lam, r):
    lam = Partition((p, m) for p, m in lam.pairs if p % r)
    mu = glaisher_map(lam, r)
    assert mu.size == lam.size
    assert classify(mu, r).j_rep == 0
    assert glaisher_inverse(mu, r) == lam


@pytest.mark.parametrize("r", [2, 3])
@given(mu=partitions_with_low_multiplicity(2))
def test_glaisher_inverse_roundtrip(mu, r):
    mu = Partition((p, min(m, r - 1)) for p, m in mu.pairs)
    lam = glaisher_inverse(mu, r)
    assert classify(lam, r).j_div == 0
    assert glaisher_map(lam, r) == mu


@pytest.mark.parametrize("r", [2, 3])
def test_glaisher_image_is_whole_class(r):
    for n in range(14):
        source = list(enumerate_class(n, ClassSpec("O", r, 0)))
        image = {glaisher_map(lam, r) for lam in source}
        assert image == set(enumerate_class(n, ClassSpec("D", r, 0)))
        assert len(image) == len(source)


def test_franklin_examples():
    assert franklin_map(Partition.parse("2^2,1"), 2) == Partition.parse("1^5")
    # j=0 reduces to the base rewrite
    assert franklin_map(Partition.parse("3,1^2"), 2) == Partition.parse("3,2")
    image = franklin_map(Partition.parse("4,2^2,1"), 2)
    assert image == Partition.parse("2^2,1^5")
    assert image.size == 9
    assert classify(image, 2).j_rep == 2
    # a stripped 6 meets the unchanged 3
    assert franklin_map(Partition.parse("6,3"), 2) == Partition.parse("3^3")
    # equal to its argument, though not a fixed point of the pair rules
    lam = Partition.parse("2,1^2")
    assert franklin_map(lam, 2) == lam and franklin_map(lam, 2) is not lam


def test_franklin_inverse_examples():
    assert franklin_inverse(Partition.parse("1^5"), 2) == \
        Partition.parse("2^2,1")
    assert franklin_inverse(Partition.parse("3,2"), 2) == \
        Partition.parse("3,1^2")
    assert franklin_inverse(Partition(), 3) == Partition()
    # the unfolded 6 meets the unchanged 3; 3^3 splits into 6 and 3
    assert franklin_inverse(Partition.parse("6,3"), 2) == \
        Partition.parse("3^3")
    assert franklin_inverse(Partition.parse("3^3"), 2) == \
        Partition.parse("6,3")


@pytest.mark.parametrize("r", [2, 3])
def test_franklin_is_a_levelwise_bijection(r):
    for n in range(13):
        by_j_image: dict[int, set] = {}
        for lam in enumerate_class(n, ClassSpec("O", r, n, "at_most")):
            j = classify(lam, r).j_div
            mu = franklin_map(lam, r)
            assert mu.size == n
            assert classify(mu, r).j_rep == j
            assert franklin_inverse(mu, r) == lam
            by_j_image.setdefault(j, set()).add(mu)
        for j, image in by_j_image.items():
            assert image == set(enumerate_class(n, ClassSpec("D", r, j)))


def test_franklin_inverse_then_map_is_identity():
    for n in range(12):
        for mu in enumerate_class(n, ClassSpec("D", 2, n, "at_most")):
            assert franklin_map(franklin_inverse(mu, 2), 2) == mu


def test_nonresidual_balance_is_pointwise_under_franklin():
    # r times the divisible-part count maps to the nonresidual total
    for n in range(12):
        for r in (2, 3):
            for lam in partitions_of(n):
                mu = franklin_map(lam, r)
                ell0 = stats(lam, r).ell_mod[0]
                assert stats(mu, r).nonresidual_total == r * ell0


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_one_pass_maps_equal_the_composition(r):
    """The one-pass maps equal the paper's strip / rewrite / union
    construction on every partition of n <= 20, and every image they
    build without validation is canonical and of size n.  Each map
    returns its argument itself exactly when no part is divisible by r
    and none is repeated r or more times."""
    for n in range(21):
        for lam in partitions_of(n):
            fixed = all(p % r and m < r for p, m in lam.pairs)
            mu = franklin_map(lam, r)
            assert mu == composed_franklin_map(lam, r), (lam, r)
            assert_canonical(mu, n)
            assert (mu is lam) == fixed, (lam, r)
            back = franklin_inverse(lam, r)
            assert back == composed_franklin_inverse(lam, r), (lam, r)
            assert_canonical(back, n)
            assert (back is lam) == fixed, (lam, r)


def test_stream_and_maps_build_every_pair_from_the_table():
    for n in range(31):
        for lam in partitions_of(n):
            assert all(pm is PAIRS[pm[0]][pm[1]] for pm in lam), lam
            for r in (2, 3, 4, 5):
                for image in (franklin_map(lam, r), franklin_inverse(lam, r)):
                    assert all(pm is PAIRS[pm[0]][pm[1]] for pm in image), \
                        (lam, r, image)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("text", ["121", "61^2", "7^20", "3^100",
                                  "121,61^2,7^3,2^5,1", "40^3,7^20,1^130"])
def test_maps_handle_pairs_above_the_table(r, text):
    lam = Partition.parse(text)
    mu = franklin_map(lam, r)
    assert mu == composed_franklin_map(lam, r)
    assert_canonical(mu, lam.size)
    assert franklin_inverse(mu, r) == lam
    back = franklin_inverse(lam, r)
    assert back == composed_franklin_inverse(lam, r)
    assert_canonical(back, lam.size)
    assert franklin_map(back, r) == lam


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_glaisher_maps_equal_the_definition(r):
    """On every partition of n <= 20 in their domains, the Glaisher maps
    equal the digit-by-digit reference built from the definition."""
    for n in range(21):
        for lam in partitions_of(n):
            j = classify(lam, r)
            if j.j_div == 0:
                mu = glaisher_map(lam, r)
                assert mu == glaisher_reference(lam, r), (lam, r)
                assert_canonical(mu, n)
            if j.j_rep == 0:
                back = glaisher_inverse(lam, r)
                assert back == glaisher_inverse_reference(lam, r), (lam, r)
                assert_canonical(back, n)


@given(data=st.data())
def test_glaisher_maps_equal_the_definition_multi_digit(data):
    """Multiplicities of at least r^2 have several base-r digits: the
    Glaisher maps still equal the reference, and the references invert
    each other."""
    r = data.draw(st.integers(min_value=2, max_value=10), label="r")
    lam = data.draw(partitions_with_high_multiplicity(r), label="lam")
    lam = Partition((p, m) for p, m in lam.pairs if p % r)
    mu = glaisher_map(lam, r)
    assert mu == glaisher_reference(lam, r)
    assert glaisher_inverse(mu, r) == glaisher_inverse_reference(mu, r)
    assert glaisher_inverse_reference(mu, r) == lam


@given(data=st.data())
def test_one_pass_maps_equal_the_composition_multi_digit(data):
    """Multiplicities of at least r^2 expand into several base-r digits,
    and r runs up to 10: both maps still equal the composition, round
    trip, and build canonical images."""
    r = data.draw(st.integers(min_value=2, max_value=10), label="r")
    lam = data.draw(partitions_with_high_multiplicity(r), label="lam")
    mu = franklin_map(lam, r)
    assert mu == composed_franklin_map(lam, r)
    assert_canonical(mu, lam.size)
    assert classify(mu, r).j_rep == classify(lam, r).j_div
    assert franklin_inverse(mu, r) == lam
    back = franklin_inverse(lam, r)
    assert back == composed_franklin_inverse(lam, r)
    assert_canonical(back, lam.size)
    assert franklin_map(back, r) == lam


def test_zeta_divisible_spec_examples():
    out = adjoin_and_classify(Partition.parse("2"), 2, (1,), (1,))
    assert out.image == Partition.parse("2^2")
    assert out.case is ZetaCase.COLLIDES_EXISTING
    assert out.collided_index == 0
    assert classify(out.image, 2).j_div == 1

    out = adjoin_and_classify(Partition.parse("2,1"), 2, (2,), (1,))
    assert out.image == Partition.parse("4,2,1")
    assert out.case is ZetaCase.FRESH_PART
    assert out.collided_index is None
    assert classify(out.image, 2).j_div == 2


def test_zeta_repeated_spec_example():
    out = adjoin_and_classify(Partition.parse("1^3"), 2, (2,), (1,),
                              variant="repeated_mults")
    assert out.image == Partition.parse("2^2,1^3")
    assert out.case is ZetaCase.FRESH_PART
    assert classify(out.image, 2).j_rep == 2


def test_zeta_repeated_collision_case():
    # distinguished part 1 (multiplicity 3) collides with m=1
    out = adjoin_and_classify(Partition.parse("1^3"), 2, (1,), (2,),
                              variant="repeated_mults")
    assert out.case is ZetaCase.COLLIDES_EXISTING
    assert out.collided_index == 0
    assert out.image == Partition.parse("1^7")
    assert classify(out.image, 2).j_rep == 1


def test_zeta_validation():
    with pytest.raises(ValueError, match="exactly one distinct part divisible"):
        adjoin_and_classify(Partition.parse("3,1"), 2, (1,), (1,))
    with pytest.raises(ValueError, match="exactly one distinct part divisible"):
        adjoin_and_classify(Partition.parse("4,2"), 2, (1,), (1,))
    with pytest.raises(ValueError, match="strictly increasing"):
        adjoin_and_classify(Partition.parse("2"), 2, (3, 1), (1, 1))
    with pytest.raises(ValueError, match="equal length"):
        adjoin_and_classify(Partition.parse("2"), 2, (1, 2), (1,))
    with pytest.raises(ValueError, match="multiplicity in \\[3, 3\\]"):
        adjoin_and_classify(Partition.parse("1^4"), 2, (2,), (1,),
                            variant="repeated_mults")
    with pytest.raises(ValueError, match="unknown variant"):
        adjoin_and_classify(Partition.parse("2"), 2, (1,), (1,), "sideways")


@pytest.mark.parametrize("r,j", [(2, 1), (2, 2), (3, 1)])
def test_zeta_divisible_contribution_counts(r, j):
    """Applying the adjoin map over all (m, k) tuples hits each exactly-j
    image (divisible count with multiplicity minus j) times and each
    exactly-(j+1) image (j+1) times."""
    for n in (8, 12):
        hits = Counter()
        for m_vec, k_vec in index_weight_tuples(j, n // r):
            weight = r * sum(m * k for m, k in zip(m_vec, k_vec))
            for mu in enumerate_class(n - weight, ClassSpec("O", r, 1)):
                out = adjoin_and_classify(mu, r, m_vec, k_vec)
                expected = j if out.case is ZetaCase.COLLIDES_EXISTING else j + 1
                assert classify(out.image, r).j_div == expected
                hits[out.image] += 1
        for eta in enumerate_class(n, ClassSpec("O", r, j)):
            assert hits[eta] == stats(eta, r).ell_mod[0] - j
        for eta in enumerate_class(n, ClassSpec("O", r, j + 1)):
            assert hits[eta] == j + 1


def _window_class(n, r):
    """Members of the exactly-1 D-class whose repeated part has
    multiplicity in [r+1, 2r-1]."""
    for mu in enumerate_class(n, ClassSpec("D", r, 1)):
        (mult,) = [m for _, m in mu.pairs if m >= r]
        if r + 1 <= mult <= 2 * r - 1:
            yield mu


@pytest.mark.parametrize("r,j", [(2, 1), (3, 1)])
def test_zeta_repeated_contribution_counts(r, j):
    """The repeated-multiplicity adjoin map hits each exactly-j image once
    per part with multiplicity above 2r and not divisible by r, and each
    exactly-(j+1) image once per part with multiplicity in the window."""
    for n in (10, 13):
        hits = Counter()
        for m_vec, k_vec in index_weight_tuples(j, n // r):
            weight = r * sum(m * k for m, k in zip(m_vec, k_vec))
            for mu in _window_class(n - weight, r):
                out = adjoin_and_classify(mu, r, m_vec, k_vec,
                                          variant="repeated_mults")
                expected = j if out.case is ZetaCase.COLLIDES_EXISTING else j + 1
                assert classify(out.image, r).j_rep == expected
                hits[out.image] += 1
        for eta in enumerate_class(n, ClassSpec("D", r, j)):
            over = sum(1 for _, m in eta.pairs if m > 2 * r and m % r != 0)
            assert hits[eta] == over
        for eta in enumerate_class(n, ClassSpec("D", r, j + 1)):
            window = sum(1 for _, m in eta.pairs if r + 1 <= m <= 2 * r - 1)
            assert hits[eta] == window


@pytest.mark.parametrize("r,t", [(2, 1), (3, 1), (3, 2)])
def test_residual_depth_sums_carry_over_fixed_fibers(r, t):
    """Over each fixed-divisible fiber, the image residual-depth total
    equals the plain class total at the reduced size; holds for any
    size-preserving base bijection because adjoined repeats leave residual
    multiplicities unchanged."""
    for n in (9, 12):
        for m_vec, k_vec in index_weight_tuples(2, n // r):
            reduced = n - r * sum(m * k for m, k in zip(m_vec, k_vec))
            fiber_total = sum(
                stats(franklin_map(lam, r), r).ell_bar_resid[t]
                for lam in enumerate_fixed_divisible(n, r, m_vec, k_vec))
            class_total = sum(
                stats(mu, r).ell_bar_resid[t]
                for mu in enumerate_class(reduced, ClassSpec("D", r, 0)))
            assert fiber_total == class_total
