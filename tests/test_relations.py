import itertools

import pytest
from hypothesis import given, settings, strategies as st

import lattice_sugeno as ls
from lattice_sugeno import (
    ArityMismatch,
    EnumerationTooLarge,
    RelationKind,
    UnknownElement,
    all_vectors,
    relation_check,
    relation_holds,
    relation_region,
)

from lattice_sugeno.axioms import relation_pairs
from lattice_sugeno.cli import build_parser
from lattice_sugeno.errors import guard_size
from lattice_sugeno.relations import _VerdictRows, _subsetwise_rows
from lattice_sugeno.suites import suite_duality, suite_lemmas

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
       st.sampled_from(PAIRWISE), st.data())
def test_engine_matches_oracle_on_random_lattices(family, arity, kind, data):
    L, ref = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    assert relation_pairs(L, arity, kind) == _brute_pairs(ref, kind, arity)
    x = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    assert relation_region(L, kind, x) == _brute_region(ref, kind, x)


# -- the verdict rows of the theorem suites ----------------------------------


def _ref_row(ref, kind, x, vectors):
    return sum(1 << b for b, y in enumerate(vectors) if _REF[kind](ref, x, y))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3))
def test_verdict_rows_match_oracle_on_random_lattices(family, arity):
    """Every row of every kind, the two subsetwise kinds included (by
    themselves and through the rows' per-anchor pass), equals the
    definitional sweep over all y."""
    L, ref = _closure_lattice(family)
    if L.size ** arity > 64:
        arity = 2
    vectors = list(itertools.product(range(L.size), repeat=arity))
    rows = _VerdictRows(L, arity)
    for x in vectors:
        for kind in (RelationKind.COMONOTONE, RelationKind.COMPARABLE,
                     RelationKind.G_COMONOTONE,
                     RelationKind.DUAL_G_COMONOTONE):
            assert rows(kind, x) == _ref_row(ref, kind, x, vectors)
        expected = (_ref_row(ref, RelationKind.SUBSETWISE_JOIN, x, vectors),
                    _ref_row(ref, RelationKind.SUBSETWISE_MEET, x, vectors))
        assert _subsetwise_rows(L, x) == expected
        assert (rows(RelationKind.SUBSETWISE_JOIN, x),
                rows(RelationKind.SUBSETWISE_MEET, x)) == expected


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
