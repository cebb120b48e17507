import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import lattice_sugeno as ls
from lattice_sugeno import relations, suites
from lattice_sugeno import (
    ArityMismatch,
    EnumerationTooLarge,
    FunctionTable,
    RelationKind,
    UnknownElement,
    all_vectors,
    relation_check,
    relation_holds,
    relation_region,
)

from lattice_sugeno.axioms import (
    _grow_plan,
    _kept_plan,
    relation_pairs,
)
from lattice_sugeno.cli import build_parser
from lattice_sugeno.errors import guard_size
from lattice_sugeno.relations import (
    _dual_agrees,
    _four_kinds_agree,
    _order_rows,
    _pair_count,
    _pair_test,
    _related,
    compatibility_table,
    decode,
    encode,
    strides,
)
from lattice_sugeno.suites import run_scope, suite_duality, suite_lemmas

from _oracles import (
    RefLattice,
    ref_boolean,
    ref_chain,
    ref_comonotone,
    ref_comonotone_by_sorting,
    ref_comparable,
    ref_dual_g_com,
    ref_g_com,
    ref_m3,
    ref_n5,
    ref_product,
    ref_subsetwise_join,
    ref_subsetwise_meet,
)

KINDS = list(RelationKind)

_REF = {
    RelationKind.COMONOTONE: ref_comonotone,
    RelationKind.COMPARABLE: ref_comparable,
    RelationKind.G_COMONOTONE: ref_g_com,
    RelationKind.DUAL_G_COMONOTONE: ref_dual_g_com,
    RelationKind.SUBSETWISE_JOIN: ref_subsetwise_join,
    RelationKind.SUBSETWISE_MEET: ref_subsetwise_meet,
}

_REF_LATTICE = {
    "chain3": ref_chain(3),
    "chain4": ref_chain(4),
    "chain6": ref_chain(6),
    "boolean2": ref_boolean(2),
    "boolean3": ref_boolean(3),
    "N5": ref_n5(),
    "M3": ref_m3(),
}


def test_token_round_trip():
    parser = build_parser()
    argv = ["region", "--lattice", "chain:2", "--x", "(0)", "--kind"]
    for kind in KINDS:
        assert RelationKind(parser.parse_args(argv + [kind.value]).kind) is kind
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["snake"])


# -- the worked three-coordinate example ----------------------------------
# x = (6,3,5), y = (7,2,9) on the eleven-step chain: coordinates 1 and 3
# are ordered oppositely in x and y, yet the interchange identity holds
# at every coordinate pair.

EX_X = (6, 3, 5)
EX_Y = (7, 2, 9)


def test_example_comonotone_fails(chain11):
    res = relation_check(chain11, RelationKind.COMONOTONE, EX_X, EX_Y)
    assert not res.holds
    assert res.witness == (0, 2)
    assert res.identities_checked == 2


def test_example_comparable_fails(chain11):
    res = relation_check(chain11, RelationKind.COMPARABLE, EX_X, EX_Y)
    assert not res.holds
    assert res.witness == (1, 0)
    assert res.identities_checked == 3


def test_example_g_comonotone_holds(chain11):
    res = relation_check(chain11, RelationKind.G_COMONOTONE, EX_X, EX_Y)
    assert res.holds
    assert res.witness is None
    assert res.identities_checked == 3


def test_example_interchange_values(chain11):
    # the three pairwise identities, with both sides spelled out
    expected = {(0, 1): 3, (0, 2): 7, (1, 2): 3}
    for (i, j), value in expected.items():
        lhs = chain11.meet(chain11.join(EX_X[i], EX_Y[i]),
                           chain11.join(EX_X[j], EX_Y[j]))
        rhs = chain11.join(chain11.meet(EX_X[i], EX_X[j]),
                           chain11.meet(EX_Y[i], EX_Y[j]))
        assert lhs == rhs == value


def test_example_dual_and_subsetwise_hold(chain11):
    for kind in (RelationKind.DUAL_G_COMONOTONE,
                 RelationKind.SUBSETWISE_JOIN,
                 RelationKind.SUBSETWISE_MEET):
        assert relation_holds(chain11, kind, EX_X, EX_Y)


# -- agreement with the oracle everywhere ---------------------------------


@pytest.mark.parametrize("lname,arity", [
    ("chain3", 2), ("chain3", 3), ("chain4", 2),
    ("boolean2", 2), ("boolean2", 3), ("N5", 2), ("M3", 2),
])
def test_matches_oracle_exhaustively(request, lname, arity):
    fixture = {"chain3": "chain3", "chain4": "chain4", "boolean2": "bool2",
               "N5": "n5", "M3": "m3"}[lname]
    L = request.getfixturevalue(fixture)
    ref = _REF_LATTICE[lname]
    vectors = list(itertools.product(range(L.size), repeat=arity))
    for x in vectors:
        for y in vectors:
            for kind in KINDS:
                assert relation_holds(L, kind, x, y) == _REF[kind](ref, x, y), \
                    (kind, x, y)


def test_symmetry_exhaustive(chain3):
    vectors = list(itertools.product(range(3), repeat=2))
    for x in vectors:
        for y in vectors:
            for kind in KINDS:
                assert (relation_holds(chain3, kind, x, y)
                        == relation_holds(chain3, kind, y, x))


def test_reflexive_and_constant_vectors(chain4, bool2):
    # comonotonicity is reflexive only at vectors whose own coordinates
    # are pairwise comparable, so it is left out of the generic loop
    reflexive_kinds = [k for k in KINDS if k is not RelationKind.COMONOTONE]
    for L in (chain4, bool2):
        for x in itertools.product(range(L.size), repeat=2):
            for kind in reflexive_kinds:
                assert relation_holds(L, kind, x, x)
            for c in range(L.size):
                const = (c, c)
                for kind in (RelationKind.G_COMONOTONE,
                             RelationKind.DUAL_G_COMONOTONE,
                             RelationKind.SUBSETWISE_JOIN,
                             RelationKind.SUBSETWISE_MEET):
                    assert relation_holds(L, kind, x, const)


def test_constants_comonotone_only_against_sortable_coordinates(chain4,
                                                                bool2):
    # on a chain any vector is comonotone with a constant one; on the
    # square the vector (p, q) is not, its coordinates being incomparable
    for x in itertools.product(range(4), repeat=2):
        assert relation_holds(chain4, RelationKind.COMONOTONE, x, (2, 2))
    p, q = bool2.index("p"), bool2.index("q")
    assert not relation_holds(bool2, RelationKind.COMONOTONE, (p, q), (p, p))


def test_swapped_atoms_fail_both_flavours(bool2):
    p, q = bool2.index("p"), bool2.index("q")
    res = relation_check(bool2, RelationKind.COMONOTONE, (p, q), (q, p))
    assert not res.holds
    assert res.witness == (0, 1)
    # (pvq)^(qvp) = 1 while (p^q)v(q^p) = 0, so the interchange fails too
    assert not relation_holds(bool2, RelationKind.G_COMONOTONE, (p, q), (q, p))


def test_arity_one_is_always_related(chain4):
    for kind in KINDS:
        for a in range(4):
            for b in range(4):
                assert relation_holds(chain4, kind, (a,), (b,))


# -- inclusion lemmas ------------------------------------------------------


@pytest.mark.parametrize("build,arity", [
    (lambda: ls.chain(2), 3), (lambda: ls.chain(3), 2),
    (lambda: ls.chain(4), 2), (lambda: ls.boolean_lattice(2), 2),
    (lambda: ls.n5(), 2), (lambda: ls.m3(), 2),
])
def test_comonotone_or_comparable_implies_both_interchanges(build, arity):
    L = build()
    vectors = list(itertools.product(range(L.size), repeat=arity))
    for x in vectors:
        for y in vectors:
            if (relation_holds(L, RelationKind.COMONOTONE, x, y)
                    or relation_holds(L, RelationKind.COMPARABLE, x, y)):
                assert relation_holds(L, RelationKind.G_COMONOTONE, x, y)
                assert relation_holds(L, RelationKind.DUAL_G_COMONOTONE, x, y)


def test_subsetwise_implies_pairwise(chain3, m3):
    for L in (chain3, m3):
        vectors = list(itertools.product(range(L.size), repeat=3))
        for x in vectors:
            for y in vectors:
                if relation_holds(L, RelationKind.SUBSETWISE_JOIN, x, y):
                    assert relation_holds(L, RelationKind.G_COMONOTONE, x, y)
                if relation_holds(L, RelationKind.SUBSETWISE_MEET, x, y):
                    assert relation_holds(L, RelationKind.DUAL_G_COMONOTONE,
                                          x, y)


def test_four_conditions_equivalent_on_distributive(chain3, bool2, prod23):
    kinds = (RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE,
             RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET)
    for L, arity in ((chain3, 3), (bool2, 3), (prod23, 2)):
        vectors = list(itertools.product(range(L.size), repeat=arity))
        for x in vectors:
            for y in vectors:
                verdicts = {relation_holds(L, k, x, y) for k in kinds}
                assert len(verdicts) == 1, (x, y)


def test_pentagon_splits_the_duality(n5):
    """On the pentagon the interchange identity and its dual disagree on
    exactly 32 of the 625 ordered pairs; the first split in scan order
    is x=(0,b), y=(c,a)."""
    vectors = list(itertools.product(range(5), repeat=2))
    split = [(x, y) for x in vectors for y in vectors
             if relation_holds(n5, RelationKind.G_COMONOTONE, x, y)
             != relation_holds(n5, RelationKind.DUAL_G_COMONOTONE, x, y)]
    assert len(split) == 32
    b, c, a = n5.index("b"), n5.index("c"), n5.index("a")
    assert split[0] == ((0, b), (c, a))


def test_diamond_does_not_split_the_duality(m3):
    vectors = list(itertools.product(range(5), repeat=2))
    for x in vectors:
        for y in vectors:
            assert (relation_holds(m3, RelationKind.G_COMONOTONE, x, y)
                    == relation_holds(m3, RelationKind.DUAL_G_COMONOTONE,
                                      x, y))


def test_chain_comonotone_equals_simultaneous_sortability(chain3):
    for n in (2, 3):
        vectors = list(itertools.product(range(3), repeat=n))
        for x in vectors:
            for y in vectors:
                assert (relation_holds(chain3, RelationKind.COMONOTONE, x, y)
                        == ref_comonotone_by_sorting(x, y))


def test_chain_comonotone_equals_sortability_arity_4(chain3):
    vectors = list(itertools.product(range(3), repeat=4))
    for x in vectors:
        for y in vectors:
            assert (relation_holds(chain3, RelationKind.COMONOTONE, x, y)
                    == ref_comonotone_by_sorting(x, y))


# -- witnesses -------------------------------------------------------------


def test_pairwise_witness_is_first_in_lex_order(chain4):
    x = (0, 3, 1, 2)
    y = (1, 0, 3, 0)
    res = relation_check(chain4, RelationKind.COMONOTONE, x, y)
    assert not res.holds
    i, j = res.witness
    # every pair scanning earlier must satisfy the identity
    for a in range(4):
        for b in range(a + 1, 4):
            if (a, b) < (i, j):
                assert ref_comonotone(ref_chain(4),
                                      (x[a], x[b]), (y[a], y[b]))
    assert not ref_comonotone(ref_chain(4), (x[i], x[j]), (y[i], y[j]))


def test_comparable_witness_names_both_directions(chain3):
    res = relation_check(chain3, RelationKind.COMPARABLE, (0, 2), (1, 1))
    assert not res.holds
    below, above = res.witness
    assert below == 1  # x[1]=2 is not below y[1]=1
    assert above == 0  # y[0]=1 is not below x[0]=0


def test_subsetwise_witness_uses_mask_order(n5):
    # find a pair failing subsetwise-join only at a two-coordinate subset
    a, b, c = n5.index("a"), n5.index("b"), n5.index("c")
    vectors = list(itertools.product(range(5), repeat=2))
    seen = None
    for x in vectors:
        for y in vectors:
            res = relation_check(n5, RelationKind.SUBSETWISE_JOIN, x, y)
            if not res.holds:
                seen = res
                break
        if seen:
            break
    assert seen is not None
    assert seen.witness == (0, 1)  # first failing subset is {1,2}
    assert seen.identities_checked == 3


def test_identities_checked_counts(chain3):
    full = relation_check(chain3, RelationKind.G_COMONOTONE,
                          (0, 1, 2), (0, 1, 2))
    assert full.identities_checked == 3  # C(3,2) pairs
    sub = relation_check(chain3, RelationKind.SUBSETWISE_JOIN,
                         (0, 1, 2), (0, 1, 2))
    assert sub.identities_checked == 7  # 2^3 - 1 nonempty subsets


# -- errors ----------------------------------------------------------------


def test_arity_mismatch(chain3):
    with pytest.raises(ArityMismatch):
        relation_check(chain3, RelationKind.COMONOTONE, (0, 1), (0, 1, 2))
    with pytest.raises(ArityMismatch):
        relation_check(chain3, RelationKind.COMONOTONE, (), ())


def test_unknown_index(chain3):
    with pytest.raises(UnknownElement):
        relation_check(chain3, RelationKind.COMONOTONE, (0, 9), (0, 1))


@pytest.mark.parametrize("build,arity,digits", [
    # chain(300) is built through the API: its element indices pass 255
    (lambda: ls.chain(300), 2, (0, 1, 2, 254, 255, 256, 298, 299)),
    (lambda: ls.boolean_lattice(2), 5, (0, 1, 2, 3)),
])
def test_strides_are_the_place_values_of_encode_and_decode(build, arity,
                                                           digits):
    k = build().size
    place = strides(k, arity)
    assert len(place) == arity and place[-1] == 1
    for x in itertools.product(digits, repeat=arity):
        pos = encode(x, k)
        assert pos == sum(v * s for v, s in zip(x, place))
        assert decode(pos, k, arity) == x == tuple(pos // s % k
                                                   for s in place)
    for i, s in enumerate(place[:-1]):
        assert s == place[i + 1] * k


def test_all_vectors_guard(chain11):
    with pytest.raises(EnumerationTooLarge):
        all_vectors(chain11, 3, limit=100)


def test_size_guard_is_inclusive_and_never_builds_a_huge_power():
    guard_size(3, 2, "vectors", 9)
    with pytest.raises(EnumerationTooLarge) as info:
        guard_size(3, 2, "vectors", 8)
    assert str(info.value) == "3^2 vectors exceed the limit of 8"
    with pytest.raises(EnumerationTooLarge):
        guard_size(2, 10 ** 12, "subsets")  # 2^(10^12) is never built
    guard_size(1, 10 ** 12, "points", 1)


# -- regions ----------------------------------------------------------------


def test_region_sizes_on_five_chain(chain5):
    """Around x=(3,1) on 0<..<4: comonotone 15, comparable 15, and the
    interchange region is exactly their union with 17 vectors."""
    x = (3, 1)
    com = relation_region(chain5, RelationKind.COMONOTONE, x)
    cmp_ = relation_region(chain5, RelationKind.COMPARABLE, x)
    g = relation_region(chain5, RelationKind.G_COMONOTONE, x)
    assert len(com) == 15
    assert len(cmp_) == 15
    assert len(g) == 17
    assert set(g) == set(com) | set(cmp_)


def test_region_closure_all_anchors_arity_two(chain4):
    for x in itertools.product(range(4), repeat=2):
        com = set(relation_region(chain4, RelationKind.COMONOTONE, x))
        cmp_ = set(relation_region(chain4, RelationKind.COMPARABLE, x))
        g = set(relation_region(chain4, RelationKind.G_COMONOTONE, x))
        assert g == com | cmp_


def test_region_closure_fails_at_arity_three(chain4):
    broken = False
    for x in itertools.product(range(4), repeat=3):
        com = set(relation_region(chain4, RelationKind.COMONOTONE, x))
        cmp_ = set(relation_region(chain4, RelationKind.COMPARABLE, x))
        g = set(relation_region(chain4, RelationKind.G_COMONOTONE, x))
        assert com | cmp_ <= g
        if g != com | cmp_:
            broken = True
    assert broken


def test_strictness_witness_at_arity_three(chain11):
    # the pair breaking the closure, scaled onto the eleven-step chain
    x, y = (0, 1, 3), (2, 1, 2)
    assert relation_holds(chain11, RelationKind.G_COMONOTONE, x, y)
    assert not relation_holds(chain11, RelationKind.COMONOTONE, x, y)
    assert not relation_holds(chain11, RelationKind.COMPARABLE, x, y)


def test_two_chain_region_of_nonconstant_anchor(chain2):
    # (0,1) and (1,0) fail the interchange identity even here, so the
    # region misses exactly one of the four vectors
    region = relation_region(chain2, RelationKind.G_COMONOTONE, (0, 1))
    assert region == ((0, 0), (0, 1), (1, 1))


def test_constant_anchor_region_is_everything(chain4, bool2):
    for L in (chain4, bool2):
        for c in range(L.size):
            region = relation_region(L, RelationKind.G_COMONOTONE, (c, c))
            assert len(region) == L.size ** 2


def test_region_is_product_ordered_and_correct(chain3):
    region = relation_region(chain3, RelationKind.COMPARABLE, (1, 1))
    assert list(region) == sorted(region)
    assert region == tuple(
        y for y in itertools.product(range(3), repeat=2)
        if ref_comparable(ref_chain(3), (1, 1), y))


def test_region_guard(chain11):
    with pytest.raises(EnumerationTooLarge):
        relation_region(chain11, RelationKind.COMONOTONE, (0, 0, 0),
                        limit=1000)


# -- random probes beyond the exhaustive grids ------------------------------

_HZOO = [ls.chain(6), ls.boolean_lattice(3), ls.n5(), ls.m3()]


@settings(max_examples=300)
@given(st.integers(0, len(_HZOO) - 1), st.integers(2, 4), st.data())
def test_oracle_agreement_property(which, arity, data):
    L = _HZOO[which]
    ref = _REF_LATTICE[L.name]
    x = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    y = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    kind = data.draw(st.sampled_from(KINDS))
    assert relation_holds(L, kind, x, y) == _REF[kind](ref, x, y)


@settings(max_examples=200)
@given(st.integers(0, len(_HZOO) - 1), st.integers(2, 4), st.data())
def test_symmetry_property(which, arity, data):
    L = _HZOO[which]
    x = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    y = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    kind = data.draw(st.sampled_from(KINDS))
    assert relation_holds(L, kind, x, y) == relation_holds(L, kind, y, x)


# -- the verdict-row engine: pairwise kinds grown output-sensitively -------

PAIRWISE = [RelationKind.COMONOTONE, RelationKind.G_COMONOTONE,
            RelationKind.DUAL_G_COMONOTONE]

_ENGINE_ZOO = {
    "chain1": (ls.chain(1), ref_chain(1)),
    "chain3": (ls.chain(3), ref_chain(3)),
    "chain4": (ls.chain(4), ref_chain(4)),
    "boolean2": (ls.boolean_lattice(2), ref_boolean(2)),
    "prod23": (ls.product([ls.chain(2), ls.chain(3)]),
               ref_product([ref_chain(2), ref_chain(3)])),
    "N5": (ls.n5(), ref_n5()),
    "M3": (ls.m3(), ref_m3()),
}


def _brute_pairs(ref, kind, arity):
    vectors = list(itertools.product(range(ref.size), repeat=arity))
    return tuple((x, y) for a, x in enumerate(vectors) for y in vectors[a:]
                 if _REF[kind](ref, x, y))


def _brute_region(ref, kind, x):
    return tuple(y for y in itertools.product(range(ref.size),
                                              repeat=len(x))
                 if _REF[kind](ref, x, y))


@pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _ENGINE_ZOO for arity in (1, 2, 3)
    if _ENGINE_ZOO[name][0].size ** arity <= 125])
def test_engine_matches_oracle(name, arity, kind):
    """relation_pairs and every region equal the definitional sweep, in
    value and in order; arity 1 has no coordinate pair, so every pair
    of a pairwise kind is related."""
    L, ref = _ENGINE_ZOO[name]
    pairs = relation_pairs(L, arity, kind)
    assert pairs == _brute_pairs(ref, kind, arity)
    if arity == 1 and kind in PAIRWISE:
        assert len(pairs) == L.size * (L.size + 1) // 2
    for x in itertools.product(range(L.size), repeat=arity):
        assert relation_region(L, kind, x) == _brute_region(ref, kind, x)


def test_relation_pairs_share_one_tuple_per_vector(chain4):
    """Every y is the product-order vector object itself, not a copy:
    the pair list holds one tuple per vector however many pairs use it."""
    for kind in PAIRWISE:
        pairs = relation_pairs(chain4, 3, kind)
        assert len({id(v) for pair in pairs for v in pair}) == 4 ** 3


def _closure_lattice(family):
    """The subsets of {0, 1, 2} in ``family`` closed under intersection,
    plus the full set, ordered by inclusion: always a lattice, and N5,
    M3 and their relatives all arise this way.  Returns the package
    lattice built by from_covers and an independent reference."""
    sets = {frozenset(range(3))}
    for mask in family:
        sets.add(frozenset(i for i in range(3) if mask >> i & 1))
    grown = True
    while grown:
        meets = {a & b for a in sets for b in sets}
        grown = not meets <= sets
        sets |= meets
    sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
    names = ["s" + "".join(map(str, sorted(s))) for s in sets]
    covers = [(names[a], names[b])
              for a in range(len(sets)) for b in range(len(sets))
              if sets[a] < sets[b]
              and not any(sets[a] < c < sets[b] for c in sets)]
    L = ls.from_covers("closure", names, covers)
    return L, RefLattice(len(sets), lambda a, b: sets[a] <= sets[b])


def _unsorted_n5():
    """N5 with element indices that are no linear extension of the
    order, and its reference."""
    names = ["1", "b", "c", "0", "a"]
    L = ls.from_covers("unsorted-N5", names,
                       [("0", "a"), ("a", "b"), ("b", "1"),
                        ("0", "c"), ("c", "1")])
    below = {"0": "0", "a": "0a", "b": "0ab", "c": "0c", "1": "0abc1"}
    return L, RefLattice(5, lambda p, q: names[p] in below[names[q]])


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7)))
def test_lattice_tables_match_oracle_on_random_lattices(family):
    """Meets and joins read off the order's down- and up-sets, and the
    bounds, equal the reference's scan for bounds."""
    L, ref = _closure_lattice(family)
    assert (L.bottom, L.top) == (ref.bottom, ref.top)
    for a in range(L.size):
        for b in range(L.size):
            assert L.meet(a, b) == ref.meet(a, b)
            assert L.join(a, b) == ref.join(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3),
       st.sampled_from(KINDS), st.data())
def test_engine_matches_oracle_on_random_lattices(family, arity, kind, data):
    """relation_pairs and a region of every kind equal the
    definitional sweep, within the vector and identity guards."""
    L, ref = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    assert relation_pairs(L, arity, kind) == _brute_pairs(ref, kind, arity)
    x = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    assert relation_region(L, kind, x) == _brute_region(ref, kind, x)


# -- the letter tables and pair plans of the pairwise kinds ----------------

_TABLE_ZOO = {**_ENGINE_ZOO, "unsorted-N5": _unsorted_n5()}


def _assert_letter_table_matches(L, ref, kind):
    """Bit c*k+d of entry a*k+b is the verdict on x = (a, c), y = (b, d):
    letter (a, b) at the earlier coordinate, (c, d) at the later one."""
    k = L.size
    table = compatibility_table(L, kind)
    assert len(table) == k * k
    for a, b, c, d in itertools.product(range(k), repeat=4):
        assert (table[a * k + b] >> (c * k + d) & 1
                == _REF[kind](ref, (a, c), (b, d))), (a, b, c, d)


def _assert_plan_matches(L, ref, kind, arity):
    """Both kept plans, grown to their end, hold the oracle's pairs:
    anchors strictly increasing, none without a pair, each starting at
    the count of the oracle's pairs of the earlier anchors, and,
    flattened, x in product order, then every y from x on that the
    oracle relates to x, with x v y and x ^ y taken from the oracle.
    The plan for monotone tables holds the pairs with x not <= y
    coordinatewise, the other one every pair; each total is the
    oracle's pair count."""
    vectors = list(itertools.product(range(L.size), repeat=arity))
    index = {v: i for i, v in enumerate(vectors)}
    rows, before = [], []
    for a, x in enumerate(vectors):
        before.append(len(rows))
        for b in range(a, len(vectors)):
            y = vectors[b]
            if _REF[kind](ref, x, y):
                rows.append((a, b, index[tuple(map(ref.join, x, y))],
                             index[tuple(map(ref.meet, x, y))],
                             all(map(ref.leq, x, y))))
    for monotone in (True, False):
        f = FunctionTable._trusted(L, arity, [L.top] * len(vectors),
                                   monotone=monotone)
        key, plan = _kept_plan(f, kind)
        assert key == (arity, kind, monotone)
        for _ in _grow_plan(L, key, plan):
            pass
        assert plan.walk is None
        assert plan.total == len(rows)
        anchors = [anchor[0] for anchor in plan.anchors]
        assert anchors == sorted(set(anchors))
        flat = []
        for a, start, *columns in plan.anchors:
            assert start == before[a]
            assert len(columns) == 3 and len(columns[0]) > 0
            assert {len(c) for c in columns} == {len(columns[0])}
            assert {c.typecode for c in columns} == {"i"}
            flat += [(a, *row) for row in zip(*columns)]
        assert flat == [row[:4] for row in rows if not (monotone and row[4])]
        assert L._pair_cache[key] is plan


@pytest.mark.parametrize("kind", PAIRWISE, ids=lambda k: k.value)
@pytest.mark.parametrize("name", _TABLE_ZOO)
def test_letter_table_matches_oracle(name, kind):
    _assert_letter_table_matches(*_TABLE_ZOO[name], kind)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)))
def test_letter_table_matches_oracle_on_random_lattices(family):
    L, ref = _closure_lattice(family)
    for kind in PAIRWISE:
        _assert_letter_table_matches(L, ref, kind)


def _assert_table_matches_the_pair_test(L, kind):
    """The letter table of a pairwise kind, read off the up- and
    down-sets for comonotone and built row by row from the meet and join
    tables for the others, is the table of the kind's test of two
    letters, ``_pair_test``, evaluated k^4 times."""
    k = L.size
    test = _pair_test(L, kind)[2]
    assert compatibility_table(L, kind) == [
        sum(1 << c * k + d for c in range(k) for d in range(k)
            if test(a, b, c, d))
        for a in range(k) for b in range(k)]


_PAIR_TEST_ZOO = {
    "chain1": lambda: ls.chain(1), "chain2": lambda: ls.chain(2),
    "chain9": lambda: ls.chain(9), "boolean3": lambda: ls.boolean_lattice(3),
    "N5": ls.n5, "M3": ls.m3,
    "prod23": lambda: ls.product([ls.chain(2), ls.chain(3)]),
    "unsorted-N5": lambda: _unsorted_n5()[0]}


@pytest.mark.parametrize("build", _PAIR_TEST_ZOO.values(), ids=_PAIR_TEST_ZOO)
def test_comonotone_letter_table_matches_the_order_test(build):
    _assert_table_matches_the_pair_test(build(), RelationKind.COMONOTONE)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)))
def test_comonotone_letter_table_matches_the_order_test_on_random_lattices(
        family):
    _assert_table_matches_the_pair_test(_closure_lattice(family)[0],
                                        RelationKind.COMONOTONE)


_INTERCHANGE = [RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE]


@pytest.mark.parametrize("kind", _INTERCHANGE, ids=lambda k: k.value)
@pytest.mark.parametrize("build", _PAIR_TEST_ZOO.values(), ids=_PAIR_TEST_ZOO)
def test_interchange_letter_tables_match_the_pair_test(build, kind):
    _assert_table_matches_the_pair_test(build(), kind)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)))
def test_interchange_letter_tables_match_the_pair_test_on_random_lattices(
        family):
    L = _closure_lattice(family)[0]
    for kind in _INTERCHANGE:
        _assert_table_matches_the_pair_test(L, kind)


@pytest.mark.parametrize("kind", PAIRWISE, ids=lambda k: k.value)
@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _TABLE_ZOO for arity in (1, 2, 3)
    if _TABLE_ZOO[name][0].size ** arity <= 216])
def test_pair_plan_matches_oracle_walk(name, arity, kind):
    _assert_plan_matches(*_TABLE_ZOO[name], kind, arity)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3),
       st.sampled_from(PAIRWISE))
def test_pair_plan_matches_oracle_walk_on_random_lattices(family, arity,
                                                          kind):
    L, ref = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    _assert_plan_matches(L, ref, kind, arity)


# -- the positions related to one anchor -------------------------------------


def _ref_positions(ref, kind, x, vectors):
    return [b for b, y in enumerate(vectors) if _REF[kind](ref, x, y)]


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_related_matches_oracle_on_random_lattices(family, arity):
    """The positions related to every anchor, for all six kinds, equal
    the definitional sweep over all y, ascending."""
    L, ref = _closure_lattice(family)
    if L.size ** arity > 64:
        arity = 2
    vectors = list(itertools.product(range(L.size), repeat=arity))
    for x in vectors:
        for kind in KINDS:
            assert list(_related(L, kind, x)) == _ref_positions(
                ref, kind, x, vectors), (kind, x)


def _assert_related_on_one_lattice(L, ref, seed):
    """Arities 1 to 4 (up to 256 points) on the one lattice object, every
    anchor in shuffled order with the six kinds interleaved: each list of
    related positions equals the oracle's sweep, so a step memo kept on
    the lattice answers alike for every arity and kind."""
    rng = random.Random(seed)
    cases = []
    for arity in range(1, 5):
        if L.size ** arity > 256:
            break
        vectors = list(itertools.product(range(L.size), repeat=arity))
        cases += [(kind, x, vectors) for x in vectors for kind in KINDS]
    rng.shuffle(cases)
    for kind, x, vectors in cases:
        assert list(_related(L, kind, x)) == _ref_positions(
            ref, kind, x, vectors), (kind, x)


@pytest.mark.parametrize("name", ["N5", "M3", "chain1", "boolean3"])
def test_related_on_one_warm_lattice_matches_oracle(name):
    L, ref = {"N5": (ls.n5(), ref_n5()), "M3": (ls.m3(), ref_m3()),
              "chain1": (ls.chain(1), ref_chain(1)),
              "boolean3": (ls.boolean_lattice(3), ref_boolean(3))}[name]
    _assert_related_on_one_lattice(L, ref, name)


@settings(max_examples=8, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(0, 2 ** 16))
def test_related_on_one_warm_random_lattice_matches_oracle(family, seed):
    _assert_related_on_one_lattice(*_closure_lattice(family), seed)


def test_chain_128_subsetwise_region_stays_small():
    """The 8,256 vectors around (0,127) on chain:128 are grown through
    fold closures keyed by closure and digit, within 10 MB of traced
    allocations."""
    L = ls.chain(128)
    tracemalloc.start()
    try:
        region = relation_region(L, RelationKind.SUBSETWISE_JOIN, (0, 127))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(region) == 8256
    assert peak < 10 * 2 ** 20, peak


def _assert_order_rows_match(L, ref, arity):
    vectors = list(itertools.product(range(L.size), repeat=arity))
    for x in vectors:
        below = sum(1 << b for b, y in enumerate(vectors)
                    if all(ref.leq(v, u) for v, u in zip(y, x)))
        above = sum(1 << b for b, y in enumerate(vectors)
                    if all(ref.leq(u, v) for v, u in zip(y, x)))
        assert _order_rows(L, x) == (below, above)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_order_rows_match_the_oracle_sweep(family, arity):
    """The rows of y <= x and of y >= x equal the reference order's
    sweep over every y."""
    L, ref = _closure_lattice(family)
    if L.size ** arity > 64:
        arity = 2
    _assert_order_rows_match(L, ref, arity)


def test_order_rows_on_an_n5_with_unsorted_indices():
    """Element indices that are no linear extension of the order: a
    row is not a prefix or suffix of the domain."""
    L, ref = _unsorted_n5()
    for arity in (1, 2, 3):
        _assert_order_rows_match(L, ref, arity)


def test_theorem_suites_build_each_letter_table_once(monkeypatch):
    """Every scope of ``all`` on chain:4 at arity 3, the suites' letter
    decisions and the pair plans alike, shares one letter table per
    pairwise kind: counted as the distinct tables handed out, to
    ``relations`` and to ``suites``."""
    built = {}
    original = relations.compatibility_table

    def counted(lattice, kind):
        table = original(lattice, kind)
        built.setdefault(kind, {})[id(table)] = table
        return table

    monkeypatch.setattr(relations, "compatibility_table", counted)
    monkeypatch.setattr(suites, "compatibility_table", counted)
    run_scope("all", ls.chain(4), 3)
    assert {kind: len(tables) for kind, tables in built.items()} == {
        kind: 1 for kind in PAIRWISE}


def _assert_memoized_rows_match(L, ref, arity):
    """After ``all``, every list of related positions a pair plan keeps
    to rank its failing checks is, for its anchor x, the list from x on
    that a fresh lattice gives and the oracle's sweep; returns how many
    lists were kept."""
    run_scope("all", L, arity)
    vectors = list(itertools.product(range(L.size), repeat=arity))
    fresh = ls.from_covers("fresh", L.elements, [
        (L.elements[a], L.elements[b]) for a, b in L.cover_pairs()])
    kept = 0
    for (n, kind, _), plan in L._pair_cache.items():
        assert n == arity and kind in PAIRWISE
        for a, ys in plan.regions.items():
            x = vectors[a]
            assert list(ys) == [b for b in _related(fresh, kind, x)
                                if b >= a]
            assert list(ys) == [b for b in _ref_positions(
                ref, kind, x, vectors) if b >= a], (kind, x)
            kept += 1
    return kept


#: builtin lattices and their references, by name
_NAMED = {"chain3": (lambda: (ls.chain(3), ref_chain(3))),
          "chain4": (lambda: (ls.chain(4), ref_chain(4))),
          "boolean2": (lambda: (ls.boolean_lattice(2), ref_boolean(2))),
          "N5": (lambda: (ls.n5(), ref_n5())),
          "M3": (lambda: (ls.m3(), ref_m3())),
          "unsorted-N5": _unsorted_n5}


@pytest.mark.parametrize("name,arity", [
    ("chain4", 3), ("boolean2", 3), ("N5", 3), ("M3", 2),
    ("unsorted-N5", 2)])
def test_memoized_rows_after_all_match_a_fresh_lattice(name, arity):
    L, ref = _NAMED[name]()
    assert _assert_memoized_rows_match(L, ref, arity)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 2))
def test_memoized_rows_after_all_match_on_random_lattices(family, arity):
    _assert_memoized_rows_match(*_closure_lattice(family), arity)


@pytest.mark.parametrize("scope,lattice", [
    ("thm1", ls.n5()), ("thm2", ls.boolean_lattice(2)),
    ("example1", ls.chain(4))])
def test_the_zipped_suites_keep_no_region(scope, lattice):
    """thm1, thm2 and example1 read the walks of every anchor at once
    and build no pair plan, so no plan keeps a region of theirs."""
    run_scope(scope, lattice, 3)
    assert lattice._pair_cache == {}


def test_regions_and_relation_pairs_leave_no_plan_behind():
    """A region and the related pairs of every kind are read off
    ``_related`` and build no pair plan on the lattice."""
    L = ls.n5()
    for kind in KINDS:
        relation_region(L, kind, (1, 2, 3))
        relation_pairs(L, 2, kind)
    assert L._pair_cache == {}


def test_relation_pairs_refuses_too_many_subset_identities():
    """The subsetwise kinds test every subset of every pair: 8^12
    vector-subset identities on chain(2) at arity 12 are refused before
    any row is built.  Run apart, with a timeout, since an unguarded
    call runs for hours."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    code = ("import lattice_sugeno as ls\n"
            "from lattice_sugeno.axioms import relation_pairs\n"
            "for kind in ('subsetwise-join', 'subsetwise-meet'):\n"
            "    try:\n"
            "        relation_pairs(ls.chain(2), 12, ls.RelationKind(kind))\n"
            "    except ls.EnumerationTooLarge as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("8^12 vector-subset identities exceed the limit "
                           "of 10000000\n") * 2
    # the same identities within the limit are admitted
    assert relation_pairs(ls.chain(2), 2, RelationKind.SUBSETWISE_JOIN,
                          limit=64) == relation_pairs(
        ls.chain(2), 2, RelationKind.SUBSETWISE_JOIN)
    with pytest.raises(EnumerationTooLarge):
        relation_pairs(ls.chain(2), 2, RelationKind.SUBSETWISE_MEET,
                       limit=63)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 2))
def test_thm1_and_lemmas_match_an_oracle_sweep(family, arity):
    """thm1's divergence count and first witness, and the relation
    inclusion and constant-vector failures of lemmas, equal a sweep of
    every ordered pair through the reference relations."""
    L, ref = _closure_lattice(family)
    vectors = list(itertools.product(range(L.size), repeat=arity))

    def fmt(v):
        return "(%s)" % ",".join(L.elements[i] for i in v)

    divergent = [(x, y) for x in vectors for y in vectors
                 if ref_g_com(ref, x, y) != ref_dual_g_com(ref, x, y)]
    thm1 = suite_duality(L, arity)
    assert thm1.cases == len(vectors) ** 2
    if divergent:
        x, y = divergent[0]
        first = "x=%s y=%s g=%s dual=%s" % (fmt(x), fmt(y),
                                            ref_g_com(ref, x, y),
                                            ref_dual_g_com(ref, x, y))
        assert first in thm1.details[-1]
        assert "%d divergent pairs" % len(divergent) in thm1.details[-1]
    else:
        assert "DIVERGENCE" not in " ".join(thm1.details)

    _assert_lemmas_match_the_sweep(L, ref, arity)


def _assert_lemmas_match_the_sweep(L, ref, arity):
    """The relation inclusion and constant-vector failures of lemmas, as
    listed or counted, equal a sweep of every ordered pair through the
    reference relations."""
    vectors = list(itertools.product(range(L.size), repeat=arity))

    def fmt(v):
        return "(%s)" % ",".join(L.elements[i] for i in v)

    def both(x, y):
        return ref_g_com(ref, x, y) and ref_dual_g_com(ref, x, y)

    inclusion = ["relation inclusion breaks at x=%s y=%s" % (fmt(x), fmt(y))
                 for x in vectors for y in vectors
                 if (ref_comonotone(ref, x, y) or ref_comparable(ref, x, y))
                 and not both(x, y)]
    constant = ["constant vector %s not g-comonotone with %s"
                % (fmt((c,) * arity), fmt(x))
                for c in range(L.size) for x in vectors
                if not both(x, (c,) * arity)]
    lemmas = suite_lemmas(L, arity, seed=0, samples=1)
    assert lemmas.cases == len(vectors) ** 2 + L.size * len(vectors) + 2
    listed = [d for d in lemmas.details
              if d.startswith(("relation inclusion breaks",
                               "constant vector"))]
    if ls.is_distributive(L):
        assert listed == (inclusion + constant)[:5]
    else:
        assert listed == inclusion[:5]
        first = ", first: %s" % constant[0] if constant else ""
        assert ("non-distributive lattice: %d constant-vector failures%s "
                "(recorded)" % (len(constant), first)) in lemmas.details


@pytest.mark.parametrize("name,arity", [
    ("chain4", 3), ("boolean2", 3), ("N5", 3), ("M3", 3),
    ("unsorted-N5", 3), ("chain3", 4)])
def test_lemmas_match_an_oracle_sweep_at_larger_arities(name, arity):
    _assert_lemmas_match_the_sweep(*_NAMED[name](), arity)


def _cut_letters(lattice, kind, first, second):
    """Make letters ``first`` and ``second`` incompatible, in both
    directions, in the kept letter table of ``kind``."""
    table = compatibility_table(lattice, kind)
    k = lattice.size
    l, m = first[0] * k + first[1], second[0] * k + second[1]
    table[l] &= ~(1 << m)
    table[m] &= ~(1 << l)


@pytest.mark.parametrize("size, first, second, witness", [
    (3, (0, 1), (1, 2), "x=(0,1,1) y=(1,2,2)"),
    (3, (0, 1), (2, 1), "x=(0,2,2) y=(1,1,1)"),
    (4, (0, 3), (1, 2), "x=(0,1,1) y=(3,2,2)"),
    (4, (2, 1), (3, 0), "x=(2,3,3) y=(1,0,0)"),
], ids=["comonotone-and-below", "comonotone-only", "below-only",
        "above-only"])
def test_a_broken_letter_table_breaks_the_inclusion_at_a_word(
        size, first, second, witness):
    """Two letters of a chain that are comonotone-compatible, or both
    have a <= b, or both a >= b, made g-incompatible: the inclusion
    breaks once, at the word x = (a,c,c), y = (b,d,d) of the first,
    (a, b), and the second, (c, d)."""
    L = ls.chain(size)
    _cut_letters(L, RelationKind.G_COMONOTONE, first, second)
    lemmas = suite_lemmas(L, 3, seed=0, samples=1)
    assert not lemmas.passed
    assert [d for d in lemmas.details
            if d.startswith("relation inclusion breaks")] == [
        "relation inclusion breaks at " + witness]


def _eager_verdicts(f):
    """The implication loop's verdicts as they were: all nine axioms but
    the gate, checked up front on every sampled table."""
    verdicts = {kind: suites.axiom_check(f, kind).holds
                for kind in ls.AxiomKind
                if kind is not ls.AxiomKind.MONOTONE_BOUNDARY}
    return verdicts.__getitem__


def _lemmas_both_ways(monkeypatch, L, arity, seed, samples=50):
    """suite_lemmas with conclusions checked on demand, then with the
    eager loop, each on a fresh copy of L: (result, axiom_check calls)
    for each."""
    calls = [0]
    original = suites.axiom_check

    def counted(f, kind):
        calls[0] += 1
        return original(f, kind)

    monkeypatch.setattr(suites, "axiom_check", counted)
    out = []
    for verdicts in (suites._verdicts_on_demand, _eager_verdicts):
        monkeypatch.setattr(suites, "_verdicts_on_demand", verdicts)
        calls[0] = 0
        fresh = ls.from_covers(L.name, L.elements, [
            (L.elements[a], L.elements[b]) for a, b in L.cover_pairs()])
        out.append((suite_lemmas(fresh, arity, seed, samples), calls[0]))
    return out


@pytest.mark.parametrize("name,arity,seed", [
    ("builtin:N5", 2, 0), ("builtin:N5", 3, 7), ("builtin:M3", 2, 3),
    ("builtin:M3", 3, 11)])
def test_lemmas_on_demand_match_the_eager_loop(monkeypatch, name, arity,
                                               seed):
    (lazy, lazy_calls), (eager, eager_calls) = _lemmas_both_ways(
        monkeypatch, ls.build_lattice(name), arity, seed)
    assert (lazy.passed, lazy.cases, lazy.details) == (
        eager.passed, eager.cases, eager.details)
    assert lazy_calls < eager_calls


#: the families of _closure_lattice whose lattice is not distributive
_NONDISTRIBUTIVE_FAMILIES = [
    family for family in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(range(8), r) for r in range(9)))
    if not ls.is_distributive(_closure_lattice(family)[0])]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(_NONDISTRIBUTIVE_FAMILIES), st.integers(1, 2),
       st.integers(0, 99))
def test_lemmas_on_demand_match_the_eager_loop_on_random_lattices(
        family, arity, seed):
    L, _ = _closure_lattice(family)
    with pytest.MonkeyPatch.context() as monkeypatch:
        (lazy, _), (eager, _) = _lemmas_both_ways(monkeypatch, L, arity,
                                                  seed, samples=20)
    assert (lazy.passed, lazy.cases, lazy.details) == (
        eager.passed, eager.cases, eager.details)


def test_lemmas_check_a_conclusion_only_under_its_premise(monkeypatch):
    """On boolean:2 at arity 3, seed 123, the 50 sampled tables and 10
    integrals took 550 axiom checks when every axiom was checked; with
    conclusions checked only under their premises they take 355."""
    (lazy, lazy_calls), (eager, eager_calls) = _lemmas_both_ways(
        monkeypatch, ls.boolean_lattice(2), 3, 123)
    assert (lazy_calls, eager_calls) == (355, 550)
    assert lazy.details == eager.details


# -- relation_check's subsetwise walk against the sweep it replaced ----------


def _from_scratch_subsetwise(L, kind, x, y):
    """relation_check's subsetwise sweep as it was: every subset's
    coordinate list rebuilt and folded from scratch, masks in increasing
    order.  Returns (holds, witness, identities_checked)."""
    n = len(x)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if kind is RelationKind.SUBSETWISE_JOIN:
            lhs = L.meet_all(L._join[x[i]][y[i]] for i in idx)
            rhs = L._join[L.meet_all(x[i] for i in idx)][
                L.meet_all(y[i] for i in idx)]
        else:
            lhs = L.join_all(L._meet[x[i]][y[i]] for i in idx)
            rhs = L._meet[L.join_all(x[i] for i in idx)][
                L.join_all(y[i] for i in idx)]
        if lhs != rhs:
            return False, tuple(idx), mask
    return True, None, (1 << n) - 1


class _RefChain:
    """The k-chain's reference operations: meet and join are min and
    max of the indices, no table involved."""

    def __init__(self, k):
        self.size, self.bottom, self.top = k, 0, k - 1

    meet, join = staticmethod(min), staticmethod(max)

    def meet_all(self, vals):
        return min(vals, default=self.top)

    def join_all(self, vals):
        return max(vals, default=self.bottom)


# chain(300) is built through the API: its element indices pass 255
_SUBSETWISE_ZOO = [(ls.n5(), ref_n5()), (ls.m3(), ref_m3()),
                   (ls.chain(300), _RefChain(300))]


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(0, len(_SUBSETWISE_ZOO)),
       st.integers(1, 11), st.data())
def test_subsetwise_walk_matches_the_from_scratch_sweep(family, which, arity,
                                                        data):
    """Verdict, first failing subset and identity count of the
    incremental walk equal the from-scratch sweep, on random closure
    lattices (N5, M3 and other non-distributive ones among them) and on
    a chain whose indices do not fit a byte; the verdict equals the
    definitional oracle."""
    if which == len(_SUBSETWISE_ZOO):
        L, ref = _closure_lattice(family)
    else:
        L, ref = _SUBSETWISE_ZOO[which]
    element = st.integers(0, L.size - 1)
    x = [data.draw(element) for _ in range(arity)]
    # copying some of x's coordinates makes holding pairs common
    y = [data.draw(st.sampled_from((v, data.draw(element)))) for v in x]
    for kind in (RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET):
        res = relation_check(L, kind, x, y)
        assert ((res.holds, res.witness, res.identities_checked)
                == _from_scratch_subsetwise(L, kind, x, y))
        assert res.holds == _REF[kind](ref, x, y)


@pytest.mark.parametrize("build,kind,x,y,witness,count", [
    # chain:2: a set fails exactly when it holds letters (0,1) and (1,0);
    # {0, 14} comes before {14, 15}, which has the higher top coordinate
    (lambda: ls.chain(2), RelationKind.SUBSETWISE_JOIN,
     (1,) + (0,) * 14 + (1,), (0,) * 14 + (1, 0), (0, 14), 2 ** 14 + 1),
    (lambda: ls.chain(2), RelationKind.SUBSETWISE_MEET,
     (0,) * 9 + (1,), (0, 0, 0, 1) + (0,) * 6, (3, 9), 2 ** 9 + 8),
    # M3: letters (a,a), (b,1), (1,c) fail only as a triple; (0,0) letters
    # hold with anything under the join kind, (1,1) under the meet kind
    (ls.m3, RelationKind.SUBSETWISE_JOIN,
     (0,) * 9 + (1, 0, 0, 2, 0, 0, 4), (0,) * 9 + (1, 0, 0, 4, 0, 0, 3),
     (9, 12, 15), 2 ** 9 + 2 ** 12 + 2 ** 15),
    # M3: letters (0,b), (0,c), (a,0) fail only as a triple
    (ls.m3, RelationKind.SUBSETWISE_MEET,
     (4, 4, 0) + (4,) * 7 + (0, 4, 4, 1), (4, 4, 2) + (4,) * 7 + (3, 4, 4, 0),
     (2, 10, 13), 2 ** 2 + 2 ** 10 + 2 ** 13),
])
def test_subsetwise_check_finds_high_first_failures(build, kind, x, y,
                                                    witness, count):
    """First failures whose top coordinate is far from 0, at 10-16
    coordinates: the check finds the top coordinate from the closure
    and the lower bits one at a time, and must report the lowest
    failing mask, as the from-scratch sweep does."""
    L = build()
    res = relation_check(L, kind, x, y)
    assert (res.holds, res.witness, res.identities_checked) == (
        False, witness, count)
    assert (False, witness, count) == _from_scratch_subsetwise(L, kind, x, y)


# -- the subsetwise verdict rows against the one-pass sweep they replaced ----


def _one_pass_subsetwise_rows(lattice, x):
    """The subsetwise rows as they were built: one pass over every y and
    every nonempty coordinate subset in increasing mask order, each
    subset's meets and joins extending those of the subset without its
    lowest coordinate.  Returns (join row, meet row)."""
    meet, join = lattice._meet, lattice._join
    size = 1 << len(x)
    subsets = [(mask, mask & (mask - 1), (mask & -mask).bit_length() - 1)
               for mask in range(1, size)]
    x_meets = [lattice.top] * size
    x_joins = [lattice.bottom] * size
    for mask, rest, i in subsets:
        x_meets[mask] = meet[x_meets[rest]][x[i]]
        x_joins[mask] = join[x_joins[rest]][x[i]]
    y_meets = [lattice.top] * size
    y_joins = [lattice.bottom] * size
    meet_of_joins = [lattice.top] * size
    join_of_meets = [lattice.bottom] * size
    join_digits = bytearray(b"1") * lattice.size ** len(x)
    meet_digits = bytearray(join_digits)
    for pos, y in enumerate(itertools.product(range(lattice.size),
                                              repeat=len(x))):
        for mask, rest, i in subsets:
            xi, yi = x[i], y[i]
            y_meets[mask] = meet[y_meets[rest]][yi]
            y_joins[mask] = join[y_joins[rest]][yi]
            meet_of_joins[mask] = meet[meet_of_joins[rest]][join[xi][yi]]
            join_of_meets[mask] = join[join_of_meets[rest]][meet[xi][yi]]
            if meet_of_joins[mask] != join[x_meets[mask]][y_meets[mask]]:
                join_digits[pos] = 48
                if meet_digits[pos] == 48:
                    break
            if join_of_meets[mask] != meet[x_joins[mask]][y_joins[mask]]:
                meet_digits[pos] = 48
                if join_digits[pos] == 48:
                    break
    return int(join_digits[::-1], 2), int(meet_digits[::-1], 2)


def _assert_subsetwise_rows_match(L, arity):
    """Every anchor's two subsetwise regions, on one lattice whose set
    verdicts are shared across anchors, are the set bits of the one-pass
    sweep's rows; the kinds are asked for in alternating order."""
    kinds = [RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET]
    for a, x in enumerate(itertools.product(range(L.size), repeat=arity)):
        regions = {kind: _related(L, kind, x)
                   for kind in (kinds if a % 2 else kinds[::-1])}
        assert tuple(sum(1 << b for b in regions[kind]) for kind in kinds
                     ) == _one_pass_subsetwise_rows(L, x), x


_SUBSETWISE_ROW_ZOO = {
    "chain3": lambda: ls.chain(3),
    "chain4": lambda: ls.chain(4),
    "boolean2": lambda: ls.boolean_lattice(2),
    "N5": ls.n5,
    "M3": ls.m3,
    "unsorted-N5": lambda: _unsorted_n5()[0],
    "prod23": lambda: ls.product([ls.chain(2), ls.chain(3)]),
}


@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _SUBSETWISE_ROW_ZOO for arity in (1, 2, 3, 4)
    if _SUBSETWISE_ROW_ZOO[name]().size ** arity <= 216])
def test_subsetwise_rows_match_the_one_pass_sweep(name, arity):
    _assert_subsetwise_rows_match(_SUBSETWISE_ROW_ZOO[name](), arity)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_subsetwise_rows_match_the_one_pass_sweep_on_random_lattices(
        family, arity):
    L, _ = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    _assert_subsetwise_rows_match(L, arity)


def test_a_subsetwise_region_builds_only_its_own_kind():
    """A region of one subsetwise kind keeps the letter steps of that
    kind only: nothing of the other kind is folded."""
    L = ls.m3()
    relation_region(L, RelationKind.SUBSETWISE_JOIN, (1, 2, 3))
    assert RelationKind.SUBSETWISE_JOIN in L._letter_tables
    assert RelationKind.SUBSETWISE_MEET not in L._letter_tables


def test_theorem_suites_fold_each_letter_set_once(monkeypatch):
    """Under ``all`` on boolean:2 at arity 3, thm2 folds each clique of
    one to three letters of the g letter table once per subsetwise kind,
    counted against the cliques found by brute force, and keeps no
    closure on the lattice."""
    calls = [0]
    original = relations._extend

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(relations, "_extend", counted)
    L = ls.boolean_lattice(2)
    run_scope("all", L, 3)
    table = compatibility_table(L, RelationKind.G_COMONOTONE)
    cliques = sum(
        all(table[l] >> m & 1 for l, m in itertools.combinations(letters, 2))
        for size in (1, 2, 3)
        for letters in itertools.combinations(range(L.size ** 2), size))
    assert calls[0] == 2 * cliques > 0
    assert not {RelationKind.SUBSETWISE_JOIN,
                RelationKind.SUBSETWISE_MEET} & set(L._letter_tables)


# -- the FAIL lines of the theorem suites ------------------------------------
# The theorems hold, so these lines only show when what a suite reads is
# broken on purpose.


def _cut(kind, first, second):
    """Break the lattice's letter table of ``kind`` at two letters."""
    def breaks(monkeypatch, lattice):
        _cut_letters(lattice, kind, first, second)
    return breaks


def _join(kind, first, second):
    """Make two letters compatible in the lattice's letter table of
    ``kind``, in both directions."""
    def breaks(monkeypatch, lattice):
        table = compatibility_table(lattice, kind)
        k = lattice.size
        l, m = first[0] * k + first[1], second[0] * k + second[1]
        table[l] |= 1 << m
        table[m] |= 1 << l
    return breaks


def _fail_closure(kind, letters):
    """Break the subsetwise ``kind`` at one set of letters: ``_extend``
    refuses to grow any closure into the closure of that set, which on
    chain:2 is the set itself, so only the set fails, in every order
    its letters are added."""
    def breaks(monkeypatch, lattice):
        fold = _pair_test(lattice, kind)[0]
        original = relations._extend

        def extend(fold_asked, test, closure, a, b):
            grown = original(fold_asked, test, closure, a, b)
            return None if fold_asked is fold and grown == letters else grown
        monkeypatch.setattr(relations, "_extend", extend)
    return breaks


@pytest.mark.parametrize("suite, size, arity, breaks, lines", [
    (suite_duality, 2, 2,
     _join(RelationKind.DUAL_G_COMONOTONE, (0, 1), (1, 0)),
     ["thm1: FAIL (16 cases)",
      "  distributive lattice: expecting full agreement",
      "  DIVERGENCE x=(0,1) y=(1,0) g=False dual=True"]),
    (suites.suite_four_equivalences, 2, 3,
     _fail_closure(RelationKind.SUBSETWISE_MEET,
                   frozenset({(0, 0), (0, 1), (1, 1)})),
     ["thm2: FAIL (12 cases)",
      "  conditions split at x=(0,0,1) y=(0,1,1): g-comonotone=True "
      "dual-g-comonotone=True subsetwise-join=True subsetwise-meet=False"]),
    (suites.suite_region_closure, 3, 2,
     _join(RelationKind.G_COMONOTONE, (0, 1), (1, 0)),
     ["example1: FAIL (13 cases)",
      "  closure breaks at x=(0,1) y=(1,0): g=True union=False"]),
    (suite_lemmas, 2, 2, _cut(RelationKind.G_COMONOTONE, (0, 0), (1, 0)),
     ["lemmas: FAIL (84 cases)",
      "  relation inclusions checked on 16 pairs",
      "  constant-vector lemma checked on 8 pairs",
      "  implication lemmas checked on 50 sampled tables",
      "  integral compliance checked on 10 seeded capacities",
      "  relation inclusion breaks at x=(0,1) y=(0,0)",
      "  constant vector (0,0) not g-comonotone with (0,1)",
      "  constant vector (0,0) not g-comonotone with (1,0)"]),
], ids=["thm1", "thm2", "example1", "lemmas"])
def test_a_broken_row_fails_its_suite(monkeypatch, suite, size, arity, breaks,
                                      lines):
    """Each suite on a chain, with what it reads broken.  thm1 at arity
    2 reads the dual letter table, here with letters (0,1) and (1,0)
    made compatible, so that y = (1,0) becomes dual-related to x = (0,1).
    thm2 at arity 3 reads the closures of every clique of three letters,
    here with the subsetwise-meet one of {(0,0), (0,1), (1,1)} failing.
    example1 at arity 2 reads the g letter table of chain:3, here with
    letters (0,1) and (1,0) made compatible, so that y = (1,0) becomes
    g-related to x = (0,1) outside the union.  lemmas reads the g letter
    table of chain:2, where letters (0,0) and (1,0) are comonotone but
    made incompatible.  Each prints the lines the walks it replaced
    printed under the same breakage."""
    lattice = ls.chain(size)
    breaks(monkeypatch, lattice)
    result = suite(lattice, arity)
    assert (result.passed, result.lines()) == (False, lines)


# -- thm1 and thm2 decided on letters, against the walks they replaced ------


def _walked_divergence(L, n):
    """Whether some vector pair at arity n is g-comonotone and not dual
    g-comonotone, or the other way, by both kinds' full regions around
    every anchor (``_related``, checked against the oracles by the region
    tests)."""
    return any(_related(L, RelationKind.G_COMONOTONE, x)
               != _related(L, RelationKind.DUAL_G_COMONOTONE, x)
               for x in itertools.product(range(L.size), repeat=n))


def _walked_agreement(L, n):
    """Whether g-comonotone, its dual and both subsetwise kinds relate the
    same vector pairs at arity n, by the four kinds' full regions around
    every anchor."""
    kinds = (RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE,
             RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET)
    return all(len({tuple(_related(L, kind, x)) for kind in kinds}) == 1
               for x in itertools.product(range(L.size), repeat=n))


def _walkable(L, arity, points=256):
    """The arity, lowered until the walk's domain has at most ``points``
    vectors."""
    while arity > 1 and L.size ** arity > points:
        arity -= 1
    return arity


@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _SUBSETWISE_ROW_ZOO for arity in (1, 2, 3, 4)
    if _SUBSETWISE_ROW_ZOO[name]().size ** arity <= 625])
def test_thm2_decision_matches_the_walk(name, arity):
    L = _SUBSETWISE_ROW_ZOO[name]()
    assert _four_kinds_agree(L, arity) == _walked_agreement(L, arity)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 4))
def test_thm2_decision_matches_the_walk_on_random_lattices(family, arity):
    L, _ = _closure_lattice(family)
    arity = _walkable(L, arity)
    assert _four_kinds_agree(L, arity) == _walked_agreement(L, arity)


def test_thm2_decision_splits_where_the_walk_does():
    """The decision is not vacuous: N5 splits at arity 2 on its tables,
    and M3, whose tables are equal, splits at arity 3 on a clique."""
    for L, arity in ((ls.n5(), 2), (ls.m3(), 3)):
        assert not _four_kinds_agree(L, arity)
        assert not _walked_agreement(L, arity)
    assert _four_kinds_agree(ls.m3(), 2) and _walked_agreement(ls.m3(), 2)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_thm1_table_shortcut_matches_the_walk(family, arity):
    """At arity 1 no pair diverges; beyond, some pair does exactly when
    the g and dual letter tables differ."""
    L, _ = _closure_lattice(family)
    arity = _walkable(L, arity)
    assert _dual_agrees(L, arity) != _walked_divergence(L, arity)


@pytest.mark.parametrize("L, equal", [
    (ls.m3(), True), (ls.n5(), False), (_unsorted_n5()[0], False),
    (ls.chain(4), True), (ls.boolean_lattice(2), True)],
    ids=["M3", "N5", "unsorted-N5", "chain4", "boolean2"])
def test_thm1_table_shortcut_on_named_lattices(L, equal):
    """M3 is not distributive, yet its g and dual tables are equal and
    no pair diverges at arities 2 and 3; N5 diverges on its tables."""
    tables = [compatibility_table(L, kind) for kind in (
        RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE)]
    assert (tables[0] == tables[1]) == equal
    for arity in (2, 3):
        assert _dual_agrees(L, arity) == equal
        assert _walked_divergence(L, arity) != equal


def _assert_pair_counts_match_the_oracles(L, ref, n):
    """_pair_count on the g, dual, g-and-dual and comonotone letter
    tables counts the pairs the oracles relate, over every vector pair."""
    g, dual, comonotone = (compatibility_table(L, kind) for kind in (
        RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE,
        RelationKind.COMONOTONE))
    both = [g_row & dual_row for g_row, dual_row in zip(g, dual)]
    vectors = list(itertools.product(range(L.size), repeat=n))
    counts = [0] * 4
    for x in vectors:
        for y in vectors:
            verdicts = (ref_g_com(ref, x, y), ref_dual_g_com(ref, x, y))
            counts[0] += verdicts[0]
            counts[1] += verdicts[1]
            counts[2] += all(verdicts)
            counts[3] += ref_comonotone(ref, x, y)
    assert [_pair_count(table, n) for table in (g, dual, both, comonotone)
            ] == counts


@pytest.mark.parametrize("name, arity", [
    (name, arity) for name in _TABLE_ZOO for arity in (1, 2, 3)
    if _TABLE_ZOO[name][0].size ** arity <= 256])
def test_pair_counts_match_the_oracles(name, arity):
    _assert_pair_counts_match_the_oracles(*_TABLE_ZOO[name], arity)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_pair_counts_match_the_oracles_on_random_lattices(family, arity):
    L, ref = _closure_lattice(family)
    _assert_pair_counts_match_the_oracles(L, ref, _walkable(L, arity))


def _closes_at_arity_two(ref):
    """Whether, by the oracles, every arity-2 pair is g-comonotone exactly
    when it is comonotone or comparable."""
    vectors = list(itertools.product(range(ref.size), repeat=2))
    return all(ref_g_com(ref, x, y) == (ref_comonotone(ref, x, y)
                                        or ref_comparable(ref, x, y))
               for x in vectors for y in vectors)


@pytest.mark.parametrize("L, ref, closed", [
    *((ls.chain(k), ref_chain(k), True) for k in range(1, 7)),
    (ls.boolean_lattice(2), ref_boolean(2), False),
    (ls.n5(), ref_n5(), False), (ls.m3(), ref_m3(), False),
    (*_unsorted_n5(), False),
    (ls.product([ls.chain(2), ls.chain(3)]),
     ref_product([ref_chain(2), ref_chain(3)]), False)],
    ids=["chain%d" % k for k in range(1, 7)] + [
        "boolean2", "N5", "M3", "unsorted-N5", "prod23"])
def test_same_order_table_is_the_closure_at_arity_two(L, ref, closed):
    """example1's letter pass: the g table equals ``_same_order``'s exactly
    where the oracles find closure at arity 2, on chains and nowhere
    else here."""
    assert (compatibility_table(L, RelationKind.G_COMONOTONE)
            == suites._same_order(L)) == _closes_at_arity_two(ref) == closed


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 7)))
def test_same_order_table_is_the_closure_on_random_lattices(family):
    L, ref = _closure_lattice(family)
    assert (compatibility_table(L, RelationKind.G_COMONOTONE)
            == suites._same_order(L)) == _closes_at_arity_two(ref)


@pytest.mark.parametrize("L, arity", [
    (ls.chain(4), 3), (ls.boolean_lattice(2), 4), (ls.chain(3), 4),
    (ls.product([ls.chain(2), ls.chain(3)]), 3)],
    ids=["chain4", "boolean2", "chain3", "prod23"])
def test_thm2_on_a_distributive_lattice_walks_nothing(monkeypatch, L, arity):
    """On a distributive lattice thm2 passes on the letter tables alone:
    no region is read, and thm1 neither reads a region nor counts."""
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(suites, "_related", refuse)
    monkeypatch.setattr(suites, "_pair_count", refuse)
    thm2 = suites.suite_four_equivalences(L, arity)
    thm1 = suite_duality(L, arity)
    assert (thm2.passed, thm2.cases) == (True, L.size ** (2 * arity))
    assert (thm1.passed, thm1.cases) == (True, L.size ** (2 * arity))


def test_example1_without_a_strictness_witness_fails(monkeypatch):
    """At arity 3 a g-comonotone region equal to the union leaves no
    strictness witness, after all 64^2 pairs."""
    def related(lattice, kind, x):
        if kind is not RelationKind.G_COMONOTONE:
            return relations._related(lattice, kind, x)
        return sorted(set(relations._related(
            lattice, RelationKind.COMONOTONE, x)).union(relations._related(
                lattice, RelationKind.COMPARABLE, x)))

    monkeypatch.setattr(suites, "_related", related)
    result = suites.suite_region_closure(ls.chain(4), 3)
    assert (result.passed, result.lines()) == (
        False, ["example1: FAIL (4096 cases)",
                "  no strictness witness exists at arity 3"])


def test_lemmas_list_five_implication_failures_then_count_the_rest(
        monkeypatch):
    """Two sampled tables said to satisfy every axiom but idempotency
    break three lemmas each: five lines, then one counted."""
    original = suites.axiom_check

    def verdicts(f, kind):
        if f.name in ("sample0", "sample1"):
            return ls.AxiomCheck(kind, kind is not ls.AxiomKind.IDEMPOTENT,
                                 None, 0)
        return original(f, kind)

    monkeypatch.setattr(suites, "axiom_check", verdicts)
    result = suite_lemmas(ls.chain(2), 2)
    assert (result.passed, result.cases) == (False, 84)
    assert result.details[4:] == [
        "inf_homogeneous holds but idempotent fails on [0, 1, 1, 1]",
        "sup_homogeneous holds but idempotent fails on [0, 1, 1, 1]",
        "Boolean homogeneity pair without idempotency on [0, 1, 1, 1]",
        "inf_homogeneous holds but idempotent fails on [0, 0, 1, 1]",
        "sup_homogeneous holds but idempotent fails on [0, 0, 1, 1]",
        "... 1 further failures"]


def test_run_scope_refuses_an_unknown_scope():
    with pytest.raises(ValueError) as info:
        run_scope("thm4", ls.chain(2), 2)
    assert str(info.value) == ("unknown scope 'thm4' (choose from thm1, "
                               "thm2, thm3, prop1, example1, lemmas, all)")
