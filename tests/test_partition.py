import copy
import pickle

import pytest
from hypothesis import given

from beckpart.bijections import adjoin_and_classify, franklin_map
from beckpart import enumeration
from beckpart.partition import (MAX_ENUM_N, PAIRS, Partition,
                                PartitionParseError, classify, from_canonical,
                                pair)
from helpers import partitions, stats


def test_parse_plain_list():
    lam = Partition.parse("5,3,3,1")
    assert lam.pairs == ((5, 1), (3, 2), (1, 1))
    assert lam.size == 12


def test_parse_exponent_notation():
    lam = Partition.parse("3^2,1^4,5")
    assert lam.pairs == ((5, 1), (3, 2), (1, 4))
    assert lam.size == 15


def test_parse_empty_string_is_partition_of_zero():
    lam = Partition.parse("")
    assert lam.pairs == ()
    assert lam.size == 0


def test_parse_accumulates_repeated_tokens():
    assert Partition.parse("2,2^2") == Partition.parse("2^3")


@pytest.mark.parametrize("text,bad", [
    ("5,x,1", "x"),
    ("3^y", "3^y"),
    ("0", "0"),
    ("-2", "-2"),
    ("3^0", "3^0"),
    ("4^-1", "4^-1"),
])
def test_parse_errors_name_the_offending_token(text, bad):
    with pytest.raises(PartitionParseError, match=bad.replace("^", "\\^")):
        Partition.parse(text)


def test_render_uses_exponents():
    assert Partition.parse("5,3,3,1,1,1,1").render() == "5,3^2,1^4"
    assert Partition().render() == ""


@given(partitions)
def test_parse_render_roundtrip(lam):
    assert Partition.parse(lam.render()) == lam


def test_union_examples():
    a, b = Partition.parse("3,1"), Partition.parse("3,2")
    assert a.union(b).pairs == ((3, 2), (2, 1), (1, 1))
    lam = Partition.parse("4,2")
    assert lam.union(Partition()) == lam
    assert Partition.parse("2^2").union(Partition.parse("2")) == \
        Partition.parse("2^3")


@given(partitions, partitions)
def test_union_commutative_and_size_additive(a, b):
    assert a.union(b) == b.union(a)
    assert a.union(b).size == a.size + b.size


@given(partitions, partitions, partitions)
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


def test_stats_spec_example_r2():
    st = stats(Partition.parse("2,1,1"), 2)
    assert st.ell == 3
    assert st.ell_mod == (1, 2)
    assert st.ell_bar_resid[1] == 1
    assert st.ell_bar == 2


def test_stats_spec_example_r3():
    st = stats(Partition.parse("2,2"), 3)
    assert st.ell == 2
    assert st.ell_mod == (0, 0, 2)
    assert st.per_part == ((2, 2, 2, 0),)
    assert st.ell_bar_resid[1] == 1 and st.ell_bar_resid[2] == 1


def test_stats_empty():
    st = stats(Partition(), 5)
    assert st.ell == 0 and st.ell_bar == 0
    assert st.ell_mod == (0,) * 5
    assert st.per_part == ()
    assert st.t_window_count == 0


def test_stats_window_count():
    # r=2: window is multiplicity exactly 3
    assert stats(Partition.parse("2^3,1^4"), 2).t_window_count == 1
    # r=3: window is multiplicity 4 or 5
    assert stats(Partition.parse("2^4,1^6"), 3).t_window_count == 1


@pytest.mark.parametrize("r", [2, 3, 4])
@given(lam=partitions)
def test_stats_invariants(lam, r):
    st = stats(lam, r)
    assert sum(st.ell_mod) == st.ell == sum(m for _, m in lam.pairs)
    assert st.ell_bar == len(lam.pairs)
    for part, mult, d, nonresid in st.per_part:
        assert mult == d + nonresid
        assert 0 <= d <= r - 1
        assert nonresid % r == 0
    # residual-depth counts are a non-increasing suffix-sum family
    for t in range(1, r):
        assert st.ell_bar_resid[t - 1] >= st.ell_bar_resid[t]
    assert st.ell_bar_resid[0] == st.ell_bar
    assert st.ell_bar_resid[1] == sum(
        1 for _, m in lam.pairs if m % r != 0)
    assert st.nonresidual_total == sum(m - m % r for _, m in lam.pairs)
    assert st.ell - sum(st.ell_bar_resid[1:]) == st.nonresidual_total


def test_classify_examples():
    assert classify(Partition.parse("4,2^2,1"), 2) == (2, 1)
    assert classify(Partition.parse("3,1"), 3) == (1, 0)
    assert classify(Partition(), 2) == (0, 0)


@pytest.mark.parametrize("r", [2, 3])
@given(lam=partitions)
def test_classify_agrees_with_recount(lam, r):
    idx = classify(lam, r)
    assert idx.j_div == len({p for p, _ in lam.pairs if p % r == 0})
    assert idx.j_rep == len({p for p, m in lam.pairs if m >= r})


def test_modulus_validation():
    lam = Partition.parse("2,1")
    with pytest.raises(ValueError, match="r must be >= 2"):
        stats(lam, 1)
    with pytest.raises(ValueError, match="r must be >= 2"):
        classify(lam, 0)


def test_partition_is_immutable_and_hashable():
    lam = Partition.parse("3,1")
    with pytest.raises(AttributeError):
        lam.size = 7
    assert len({lam, Partition.parse("3,1"), Partition.parse("2,2")}) == 2


def test_size_is_derived_from_the_pairs():
    # a partition stores only its pairs; size is read from them on demand
    assert Partition.__slots__ == ()
    lam = from_canonical(((3, 2), (1, 1)))
    assert tuple(lam) == lam.pairs
    assert lam.size == 7
    with pytest.raises(AttributeError):
        lam.size = 8
    with pytest.raises(AttributeError):
        lam.pairs = ((8, 1),)
    assert lam.size == 7 and lam.pairs == ((3, 2), (1, 1))


def test_pair_table_holds_the_pairs_up_to_the_enumeration_bound():
    assert MAX_ENUM_N == enumeration.MAX_ENUM_N == 120
    held = [pm for row in PAIRS for pm in row if pm is not None]
    assert held == [(p, m) for p in range(1, 121) for m in range(1, 120 // p + 1)]
    assert all(PAIRS[p][m] == (p, m) for p, m in held)
    assert pair(7, 17) is PAIRS[7][17] and pair(120, 1) is PAIRS[120][1]
    # above the bound each call makes its own tuple
    assert pair(11, 11) == (11, 11) and pair(11, 11) is not pair(11, 11)
    assert pair(1, 10**6) == (1, 10**6)
    # the validating constructor builds its pairs from the table too
    lam = Partition.parse("5,3,3,1^200")
    assert lam.pairs == ((5, 1), (3, 2), (1, 200))
    assert lam[0] is PAIRS[5][1] and lam[1] is PAIRS[3][2]


def test_constructor_rejects_bad_pairs():
    with pytest.raises(ValueError, match="part must be positive"):
        Partition([(0, 1)])
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        Partition([(3, 0)])
    for pairs in ([(2.5, 1)], [(3, 2.0)], [(4.0, 1)], [(True, 1)]):
        with pytest.raises(ValueError, match="must be integers"):
            Partition(pairs)
    with pytest.raises(ValueError, match="must be integers"):
        adjoin_and_classify(Partition.parse("2"), 2, (1.5,), (1,))


def test_partition_is_the_tuple_of_its_pairs():
    # equality, hashing, pickling and copying are the tuple's, so a
    # partition and the ZetaOutcome holding one round-trip unchanged
    image = franklin_map(Partition.parse("6,3^3"), 2)  # both give 3s
    assert image.pairs == ((6, 1), (3, 3))
    values = [Partition(), image, from_canonical(((5, 1), (2, 3))),
              adjoin_and_classify(Partition.parse("4,1"), 2, (2,), (1,))]
    for value in values:
        for copy_of in (copy.copy, copy.deepcopy,
                        lambda v: pickle.loads(pickle.dumps(v))):
            assert copy_of(value) == value
            assert type(copy_of(value)) is type(value)
    assert [len(lam) for lam in values[:3]] == [0, 2, 2]  # distinct parts
    for lam in values[:3]:
        assert list(lam) == list(lam.pairs) and lam == lam.pairs
        assert type(lam.pairs) is tuple
    assert not Partition() and Partition() == ()
    assert Partition.parse("2,1") < Partition.parse("3")
    # unpickling rebuilds through the checked constructor
    assert pickle.loads(pickle.dumps(from_canonical(((1, 2), (3, 1))))) \
        == Partition.parse("3,1^2")
