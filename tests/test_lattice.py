import pytest
from hypothesis import given, strategies as st

import lattice_sugeno as ls
from lattice_sugeno import (
    CyclicOrder,
    Lattice,
    NoBounds,
    NotALattice,
    UnknownElement,
    distributivity_witness,
    is_distributive,
    same_structure,
)

from _oracles import (
    RefLattice,
    ref_boolean,
    ref_chain,
    ref_has_n5_or_m3,
    ref_m3,
    ref_n5,
)


def ref_from(L):
    """Oracle lattice sharing only the order relation with the package."""
    return RefLattice(L.size, lambda a, b: L.leq(a, b))


# -- construction and laws ----------------------------------------------


def test_chain_tables_match_min_max(chain4):
    for a in range(4):
        for b in range(4):
            assert chain4.meet(a, b) == min(a, b)
            assert chain4.join(a, b) == max(a, b)
            assert chain4.leq(a, b) == (a <= b)


def test_chain_names_and_bounds(chain5):
    assert chain5.elements == ("0", "1", "2", "3", "4")
    assert chain5.bottom == 0
    assert chain5.top == 4
    assert chain5.name == "chain5"


def test_boolean_lattice_is_subset_algebra(bool3):
    assert bool3.elements[0] == "0"
    assert bool3.elements[7] == "1"
    assert bool3.elements[1] == "p"
    assert bool3.elements[6] == "qr"
    for a in range(8):
        for b in range(8):
            assert bool3.meet(a, b) == a & b
            assert bool3.join(a, b) == a | b
            assert bool3.leq(a, b) == (a & b == a)


def test_tables_agree_with_oracle_everywhere(n5, m3, prod23, bool2):
    for L in (n5, m3, prod23, bool2):
        ref = ref_from(L)
        for a in range(L.size):
            for b in range(L.size):
                assert L.meet(a, b) == ref.meet(a, b)
                assert L.join(a, b) == ref.join(a, b)
        assert (L.bottom, L.top) == (ref.bottom, ref.top)


def test_n5_shape(n5):
    a, b, c = n5.index("a"), n5.index("b"), n5.index("c")
    assert n5.leq(a, b)
    assert not n5.leq(a, c) and not n5.leq(c, a)
    assert n5.join(a, c) == n5.top
    assert n5.meet(b, c) == n5.bottom


def test_m3_atoms_are_incomparable(m3):
    atoms = [m3.index(e) for e in "abc"]
    for a in atoms:
        for b in atoms:
            if a != b:
                assert m3.meet(a, b) == m3.bottom
                assert m3.join(a, b) == m3.top


def test_meet_all_join_all_and_empty_family(chain4):
    assert chain4.meet_all([3, 1, 2]) == 1
    assert chain4.join_all([0, 2, 1]) == 2
    assert chain4.meet_all([]) == chain4.top
    assert chain4.join_all([]) == chain4.bottom


def test_index_lookup_and_unknown_element(chain3):
    assert chain3.index("2") == 2
    with pytest.raises(UnknownElement):
        chain3.index("9")
    with pytest.raises(UnknownElement):
        chain3.meet(0, 7)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Lattice("dup", ["a", "a"], [[True, True], [False, True]])


def test_nonreflexive_order_rejected():
    with pytest.raises(NotALattice):
        Lattice("bad", ["a", "b"], [[False, True], [False, True]])


def test_cyclic_order_rejected():
    rows = [[True, True], [True, True]]
    with pytest.raises(CyclicOrder):
        Lattice("cyc", ["a", "b"], rows)


def test_two_maximal_elements_rejected():
    rows = [[True, True, True],
            [False, True, False],
            [False, False, True]]
    with pytest.raises(NoBounds):
        Lattice("vee", ["0", "a", "b"], rows)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Lattice("none", [], []), NoBounds,
     "a bounded lattice needs at least one element"),
    (lambda: Lattice("short", ["a", "b"], [[True, True]]), ValueError,
     "leq table must be 2 x 2"),
    (lambda: Lattice("skip", ["a", "b", "c"], [[True, True, False],
                                                [False, True, True],
                                                [False, False, True]]),
     NotALattice, "order is not transitive at a <= b"),
    (lambda: ls.chain(0), ValueError, "a chain needs at least one element"),
    (lambda: ls.boolean_lattice(-1), ValueError,
     "atom count must be nonnegative"),
    (lambda: ls.boolean_lattice(12), ValueError, "at most 11 atoms supported"),
    (lambda: ls.product([]), ValueError, "a product needs at least one factor"),
    (lambda: ls.from_covers("dup", ["a", "a"], []), ValueError,
     "duplicate element names: ['a', 'a']"),
], ids=["no-elements", "short-table", "intransitive", "empty-chain",
        "negative-atoms", "too-many-atoms", "empty-product",
        "duplicate-covers-names"])
def test_constructors_refuse_with_their_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


# -- covers and from_covers ----------------------------------------------


def test_covers_on_chain(chain4):
    assert chain4.upper_covers(1) == (2,)
    assert chain4.upper_covers(3) == ()
    assert list(chain4.cover_pairs()) == [(0, 1), (1, 2), (2, 3)]


def test_covers_on_boolean(bool2):
    assert bool2.upper_covers(0) == (1, 2)


def test_from_covers_rebuilds_boolean(bool2):
    built = ls.from_covers(
        "boolean2", ["0", "p", "q", "1"],
        [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    assert same_structure(built, bool2)


def test_from_covers_cycle():
    with pytest.raises(CyclicOrder) as info:
        ls.from_covers("X", ["a", "b"], [("a", "b"), ("b", "a")])
    assert "cover cycle" in str(info.value)


def test_from_covers_self_cover():
    with pytest.raises(CyclicOrder):
        ls.from_covers("X", ["a"], [("a", "a")])


def test_from_covers_unknown_element():
    with pytest.raises(UnknownElement):
        ls.from_covers("X", ["a"], [("a", "z")])


def test_from_covers_missing_join():
    # two incomparable upper bounds for {a, b}: no least one exists
    covers = [("0", "a"), ("0", "b"),
              ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
              ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice) as info:
        ls.from_covers("bowtie", ["0", "a", "b", "c", "d", "1"], covers)
    # the meet table is built first, and {c, d} is its first pair with
    # no greatest common lower bound
    assert str(info.value) == "elements c and d have no meet"
    assert info.value.pair == (3, 4)


def test_from_covers_no_bounds():
    with pytest.raises(NoBounds):
        ls.from_covers("twochains", ["a", "b"], [])


# -- distributivity ------------------------------------------------------


def test_constructor_flags():
    assert ls.chain(3).distributive_flag is True
    assert ls.boolean_lattice(2).distributive_flag is True
    assert ls.n5().distributive_flag is None


def test_product_flag_propagation():
    assert ls.product([ls.chain(2),
                            ls.chain(3)]).distributive_flag is True
    pent = ls.n5()
    assert ls.product([pent, ls.chain(2)]).distributive_flag is None
    is_distributive(pent)
    assert ls.product([pent, ls.chain(2)]).distributive_flag is False


def test_product_names(prod23):
    assert prod23.elements == ("0.0", "0.1", "0.2", "1.0", "1.1", "1.2")
    x = prod23.index("1.0")
    y = prod23.index("0.2")
    assert prod23.meet(x, y) == prod23.index("0.0")
    assert prod23.join(x, y) == prod23.index("1.2")


def test_pentagon_and_diamond_not_distributive(n5, m3):
    for L in (n5, m3):
        assert is_distributive(L) is False
        x, y, z = distributivity_witness(L)
        lhs = L.meet(x, L.join(y, z))
        rhs = L.join(L.meet(x, y), L.meet(x, z))
        assert lhs != rhs


def test_distributive_verdict_matches_sublattice_oracle(
        chain2, chain4, bool2, bool3, prod23, n5, m3):
    for L in (chain2, chain4, bool2, bool3, prod23, n5, m3):
        assert is_distributive(L) == (not ref_has_n5_or_m3(ref_from(L)))


def test_an_interrupted_distributivity_search_leaves_no_verdict():
    """An exception escaping the triple search leaves the lattice
    unverified, not marked distributive; the next call decides it."""
    L = ls.from_covers("square", ["0", "a", "b", "1"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])

    class Interrupting(tuple):
        def __getitem__(self, i):
            raise KeyboardInterrupt

    meet = L._meet
    L._meet = meet[:2] + (Interrupting(meet[2]),) + meet[3:]
    with pytest.raises(KeyboardInterrupt):
        is_distributive(L)
    assert L.distributive_flag is None
    L._meet = meet
    assert is_distributive(L) is True
    assert distributivity_witness(L) is None


def test_oracle_sees_shapes_in_their_own_presets():
    assert ref_has_n5_or_m3(ref_n5())
    assert ref_has_n5_or_m3(ref_m3())
    assert not ref_has_n5_or_m3(ref_chain(5))
    assert not ref_has_n5_or_m3(ref_boolean(2))


# -- properties that hold in any lattice ----------------------------------

_ZOO = [ls.chain(4), ls.boolean_lattice(3), ls.n5(),
        ls.m3(), ls.product([ls.chain(2), ls.chain(3)])]


@given(st.integers(0, len(_ZOO) - 1), st.data())
def test_absorption_property(which, data):
    L = _ZOO[which]
    a = data.draw(st.integers(0, L.size - 1))
    b = data.draw(st.integers(0, L.size - 1))
    assert L.join(a, L.meet(a, b)) == a
    assert L.meet(a, L.join(a, b)) == a


@given(st.integers(0, len(_ZOO) - 1), st.data())
def test_meet_distributes_at_least_one_way(which, data):
    # the modular inequality holds in every lattice, distributive or not
    L = _ZOO[which]
    x = data.draw(st.integers(0, L.size - 1))
    y = data.draw(st.integers(0, L.size - 1))
    z = data.draw(st.integers(0, L.size - 1))
    lhs = L.meet(x, L.join(y, z))
    rhs = L.join(L.meet(x, y), L.meet(x, z))
    assert L.leq(rhs, lhs)


@given(st.integers(0, len(_ZOO) - 1), st.data())
def test_order_agrees_with_operations(which, data):
    L = _ZOO[which]
    a = data.draw(st.integers(0, L.size - 1))
    b = data.draw(st.integers(0, L.size - 1))
    assert L.leq(a, b) == (L.meet(a, b) == a)
    assert L.leq(a, b) == (L.join(a, b) == b)
