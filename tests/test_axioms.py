import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import lattice_sugeno as ls
from lattice_sugeno import (
    CHARACTERIZATIONS,
    ArityMismatch,
    AxiomCheck,
    AxiomKind,
    EnumerationTooLarge,
    FunctionTable,
    NotAggregation,
    RecognitionMethod,
    RelationKind,
    SugenoForm,
    UnknownElement,
    axiom_check,
    characterization_label,
    characterization_report,
    enumerate_aggregations,
    enumerate_capacities,
    recognize,
    relation_pairs,
    sample_aggregations,
    sample_capacities,
    sugeno_table,
    table_from_function,
    validate_capacity,
)

from lattice_sugeno.axioms import (
    _PAIR_RELATION,
    _aggregation_fill,
    _monotone_along_covers,
)
from lattice_sugeno.fileio import format_table, parse_table
from lattice_sugeno.relations import decode, encode
import lattice_sugeno.axioms as axioms_module
from lattice_sugeno.capacity import _MonotoneFill

from _oracles import (
    RefLattice,
    ref_aggregations,
    ref_axioms,
    ref_boolean,
    ref_chain,
    ref_comonotone,
    ref_g_com,
    ref_m3,
    ref_monotone_boundary,
    ref_n5,
    ref_product,
)
from test_relations import (
    _TABLE_ZOO,
    _RefChain,
    _assert_plan_matches,
    _closure_lattice,
)


def h_table(chain3):
    """Bottom at the all-bottom input, top everywhere else."""
    return table_from_function(
        chain3, 2, lambda a, b: 0 if (a, b) == (0, 0) else 2, name="h")


def median_table(chain3):
    return table_from_function(
        chain3, 2,
        lambda a, b: max(min(a, b), min(1, max(a, b))), name="med")


# -- FunctionTable plumbing -------------------------------------------------


def test_mixed_radix_indexing(chain3):
    f = FunctionTable(chain3, 2, [i % 3 for i in range(9)])
    assert f.index((1, 2)) == 5
    assert f.decode(5) == (1, 2)
    for pos in range(9):
        assert f.index(f.decode(pos)) == pos
    assert list(f.domain()) == [f.decode(i) for i in range(9)]


def test_table_matches_generating_function(chain4):
    f = table_from_function(chain4, 2, lambda a, b: min(a, b), name="meet")
    for x in f.domain():
        assert f(x) == min(x)


def test_table_value_validation(chain3):
    with pytest.raises(ArityMismatch):
        FunctionTable(chain3, 2, range(8))
    with pytest.raises(UnknownElement):
        FunctionTable(chain3, 1, (0, 1, 7))
    with pytest.raises(ArityMismatch):
        FunctionTable(chain3, 0, ())


def test_package_built_tables_pass_the_public_checks(n5, prod23):
    """Integrals, fills and samples skip the per-value check; their
    values are still tuples of element indices that the public
    constructor accepts."""
    for L in (n5, prod23):
        m = ls.sample_capacities(L, 2, 1, seed=1)[0]
        tables = ([sugeno_table(m, form) for form in ls.SugenoForm]
                  + sample_aggregations(L, 2, 3, seed=1)
                  + list(itertools.islice(enumerate_aggregations(
                      L, 1, domain_limit=L.size), 3)))
        for f in tables:
            assert type(f.values) is tuple
            again = FunctionTable(L, f.arity, f.values, name=f.name)
            assert again == f and again.name == f.name


def test_table_equality_ignores_name(chain3):
    f = FunctionTable(chain3, 1, (0, 1, 2), name="id")
    g = FunctionTable(chain3, 1, (0, 1, 2), name="other")
    assert f == g and hash(f) == hash(g)


def test_tables_and_capacities_equal_only_their_own_kind(chain3, chain2):
    """Equality ignores the name but needs the same lattice object, arity
    and values, and the same class: a function table never equals a
    capacity, even one with the same values."""
    twin = ls.chain(3)
    for make in (lambda L, name: FunctionTable(L, 1, (0, 1, 2), name=name),
                 lambda L, name: validate_capacity(L, 2, (0, 1, 1, 2),
                                                   name=name)):
        a, b = make(chain3, "a"), make(chain3, "b")
        assert a == b and hash(a) == hash(b)
        assert make(twin, "a") != a and a != make(twin, "a")
    f = FunctionTable(chain2, 2, (0, 1, 1, 1))
    m = validate_capacity(chain2, 2, (0, 1, 1, 1))
    assert (f.lattice, f.arity, f.values) == (m.lattice, m.arity, m.values)
    assert f != m and m != f


def test_sugeno_table_name_and_values(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2), name="sym")
    f = sugeno_table(m)
    assert f.name == "su_sym"
    assert f((2, 0)) == 1  # m({1}) ^ x1 = a
    assert f((2, 2)) == 2


# -- single axioms on the step table h ---------------------------------------


def test_h_passes_the_aggregation_gate(chain3):
    res = axiom_check(h_table(chain3), AxiomKind.MONOTONE_BOUNDARY)
    assert res.holds and res.witness is None


def test_h_is_not_idempotent(chain3):
    res = axiom_check(h_table(chain3), AxiomKind.IDEMPOTENT)
    assert not res.holds
    assert res.witness == (1,)  # h(a,a) = top, not a
    assert res.pairs_checked == 2


def test_h_fails_sup_homogeneity(chain3):
    res = axiom_check(h_table(chain3), AxiomKind.SUP_HOMOGENEOUS)
    assert not res.holds
    assert res.witness == (1, (0, 0))


def test_h_fails_inf_homogeneity(chain3):
    res = axiom_check(h_table(chain3), AxiomKind.INF_HOMOGENEOUS)
    assert not res.holds
    assert res.witness == (1, (0, 1))


def test_h_fails_boolean_inf_homogeneity(chain3):
    res = axiom_check(h_table(chain3), AxiomKind.BOOLEAN_INF_HOMOGENEOUS)
    assert not res.holds
    assert res.witness == (1, (0, 2))
    assert res.pairs_checked == 6
    # both sides of the failing identity
    f = h_table(chain3)
    assert f((min(1, 0), min(1, 2))) == 2
    assert min(1, f((0, 2))) == 1


def test_h_satisfies_all_four_quantified_identities(chain3):
    f = h_table(chain3)
    for kind in (AxiomKind.COMONOTONE_SUPREMAL, AxiomKind.COMONOTONE_INFIMAL,
                 AxiomKind.G_COMONOTONE_SUPREMAL,
                 AxiomKind.G_COMONOTONE_INFIMAL):
        assert axiom_check(f, kind).holds, kind


def test_h_matches_oracle_on_all_ten(chain3):
    f = h_table(chain3)
    table = {x: f(x) for x in f.domain()}
    expected = ref_axioms(ref_chain(3), 2, table)
    for kind in AxiomKind:
        assert axiom_check(f, kind).holds == expected[kind.value], kind


# -- integrals pass everything ------------------------------------------------


def test_every_integral_satisfies_all_ten(chain3):
    for m in enumerate_capacities(chain3, 2):
        f = sugeno_table(m)
        for kind in AxiomKind:
            res = axiom_check(f, kind)
            assert res.holds, (m.values, kind)
            assert res.witness is None


def test_projection_satisfies_all_ten(bool2):
    first = table_from_function(bool2, 2, lambda a, b: a, name="proj1")
    for kind in AxiomKind:
        assert axiom_check(first, kind).holds, kind


def test_axiom_verdicts_match_oracle_on_samples(bool2):
    ref = ref_boolean(2)
    for f in sample_aggregations(bool2, 1, 12, seed=3):
        table = {x: f(x) for x in f.domain()}
        expected = ref_axioms(ref, 1, table)
        for kind in AxiomKind:
            assert axiom_check(f, kind).holds == expected[kind.value], kind


# -- pair counting -------------------------------------------------------------


def test_homogeneity_pair_counts(chain3):
    m = validate_capacity(chain3, 2, (0, 0, 1, 2))
    f = sugeno_table(m)
    assert axiom_check(f, AxiomKind.INF_HOMOGENEOUS).pairs_checked == 27
    assert axiom_check(f, AxiomKind.SUP_HOMOGENEOUS).pairs_checked == 27
    assert axiom_check(f, AxiomKind.BOOLEAN_INF_HOMOGENEOUS).pairs_checked == 12
    assert axiom_check(f, AxiomKind.BOOLEAN_SUP_HOMOGENEOUS).pairs_checked == 12


def test_relation_pair_counts_small(chain3):
    assert len(relation_pairs(chain3, 2, RelationKind.COMONOTONE)) == 36
    assert len(relation_pairs(chain3, 2, RelationKind.G_COMONOTONE)) == 38


def test_relation_pair_counts_large(chain5):
    assert len(relation_pairs(chain5, 3, RelationKind.COMONOTONE)) == 3075
    assert len(relation_pairs(chain5, 3, RelationKind.G_COMONOTONE)) == 4209


def test_relation_pairs_cached_and_ordered():
    """One pair plan per (arity, kind) is kept on the lattice and shared
    by every later check; relation_pairs, read off the verdict rows,
    repeats itself and runs x lex <= y, in order."""
    L = ls.chain(3)
    first = relation_pairs(L, 2, RelationKind.COMONOTONE)
    constant = FunctionTable(L, 2, [1] * 9, "constant")
    assert axiom_check(constant, AxiomKind.COMONOTONE_SUPREMAL) == (
        AxiomCheck(AxiomKind.COMONOTONE_SUPREMAL, True, None, len(first)))
    plan = L._pair_cache[2, RelationKind.COMONOTONE, True]
    assert relation_pairs(L, 2, RelationKind.COMONOTONE) == first
    assert axiom_check(constant, AxiomKind.COMONOTONE_INFIMAL).holds
    assert L._pair_cache[2, RelationKind.COMONOTONE, True] is plan
    assert list(L._pair_cache) == [(2, RelationKind.COMONOTONE, True)]
    for x, y in first:
        assert x <= y
    assert first == tuple(sorted(first))


_PAIR_AXIOMS = (
    (AxiomKind.COMONOTONE_SUPREMAL, ref_comonotone, "join"),
    (AxiomKind.COMONOTONE_INFIMAL, ref_comonotone, "meet"),
    (AxiomKind.G_COMONOTONE_SUPREMAL, ref_g_com, "join"),
    (AxiomKind.G_COMONOTONE_INFIMAL, ref_g_com, "meet"),
)


@pytest.mark.parametrize("L, ref, arity", [
    (ls.chain(4), ref_chain(4), 3),
    (ls.boolean_lattice(2), ref_boolean(2), 3),
    (ls.product([ls.chain(2), ls.chain(3)]),
     ref_product([ref_chain(2), ref_chain(3)]), 2),
    (ls.n5(), ref_n5(), 2),
    (ls.m3(), ref_m3(), 2),
], ids=["chain4", "boolean2", "prod23", "N5", "M3"])
def test_pair_axioms_match_an_ordered_oracle_walk(L, ref, arity):
    """On sampled, mostly non-integral tables and on two integrals, each
    pair axiom's verdict, witness and pairs_checked equal a walk over
    the oracle's related pairs (x, y), x lex <= y, in order, stopping
    at the first failure."""
    tables = sample_aggregations(L, arity, 6, seed=11) + [
        sugeno_table(m) for m in ls.sample_capacities(L, arity, 2, seed=11)]
    assert _assert_pair_axioms_match_oracle_walk(L, ref, arity, tables)[0]


def _assert_pair_axioms_match_oracle_walk(L, ref, arity, tables):
    """Each pair axiom on each table equals the oracle walk; returns how
    many checks failed and how many failed on a pair with x <= y."""
    points = list(itertools.product(range(L.size), repeat=arity))
    failures = ordered = 0
    for f in tables:
        for kind, related, opname in _PAIR_AXIOMS:
            op = getattr(ref, opname)
            witness, count = None, 0
            for a, x in enumerate(points):
                for y in points[a:]:
                    if not related(ref, x, y):
                        continue
                    count += 1
                    combined = tuple(op(u, v) for u, v in zip(x, y))
                    if f(combined) != op(f(x), f(y)):
                        witness = (x, y)
                        break
                if witness is not None:
                    break
            res = axiom_check(f, kind)
            assert (res.holds, res.witness, res.pairs_checked) == (
                witness is None, witness, count), (f.values, kind)
            failures += witness is not None
            ordered += witness is not None and all(map(ref.leq, *witness))
    return failures, ordered


def _non_monotone_tables(L, arity, seed):
    """Seeded tables that fail monotonicity: three of random values, and
    a sampled aggregation with one entry pushed outside the interval its
    cover neighbours allow, each also as parse_table reads it back from
    the canonical text and from its lines reversed.  None on a lattice
    too small to have any."""
    rng = random.Random(seed)
    count = L.size ** arity
    tables = [FunctionTable(L, arity, [rng.randrange(L.size)
                                       for _ in range(count)], "random")
              for _ in range(3)]
    f = sample_aggregations(L, arity, 1, seed=seed)[0]
    points = list(f.domain())
    for pos in rng.sample(range(count), count):
        x = points[pos]
        lo, hi = L.bottom, L.top
        for i, v in enumerate(x):
            for c in range(L.size):
                y = f(x[:i] + (c,) + x[i + 1:])
                if v in L.upper_covers(c):
                    lo = L.join(lo, y)
                if c in L.upper_covers(v):
                    hi = L.meet(hi, y)
        options = [v for v in range(L.size)
                   if not (L.leq(lo, v) and L.leq(v, hi))]
        if options:
            pushed = list(f.values)
            pushed[pos] = rng.choice(options)
            tables.append(FunctionTable(L, arity, pushed, "pushed"))
            break
    tables = [t for t in tables if not _monotone_by_sweep(L, arity, t)]
    texts = [format_table(t).splitlines() for t in tables]
    return tables + [parse_table("\n".join([head] + body[::step]), L)
                     for step in (1, -1) for head, *body in texts]


def _monotone_by_sweep(L, arity, f):
    points = list(f.domain())
    return all(L.leq(f(p), f(q)) for p in points for q in points
               if all(map(L.leq, p, q)))


@pytest.mark.parametrize("L, ref, arity", [
    (ls.chain(4), ref_chain(4), 3),
    (ls.boolean_lattice(2), ref_boolean(2), 3),
    (ls.product([ls.chain(2), ls.chain(3)]),
     ref_product([ref_chain(2), ref_chain(3)]), 2),
    (ls.n5(), ref_n5(), 2),
    (ls.m3(), ref_m3(), 2),
], ids=["chain4", "boolean2", "prod23", "N5", "M3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_axioms_on_non_monotone_tables_match_the_oracle_walk(L, ref,
                                                                  arity,
                                                                  seed):
    """A table that fails monotonicity can fail on a pair with x <= y,
    which a kept plan does not hold: its checks read every pair and
    still equal the oracle walk, whether the gate has run or not."""
    tables = _non_monotone_tables(L, arity, seed)
    assert len(tables) == 12
    assert any(t.name == "pushed" for t in tables)
    failures, ordered = _assert_pair_axioms_match_oracle_walk(
        L, ref, arity, tables)
    assert ordered
    gated = [parse_table(format_table(t), L) for t in tables]
    for t in gated:
        assert not axiom_check(t, AxiomKind.MONOTONE_BOUNDARY).holds
    assert _assert_pair_axioms_match_oracle_walk(
        L, ref, arity, gated) == (failures, ordered)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3), st.integers(0, 99))
def test_pair_axioms_on_non_monotone_tables_on_random_lattices(family,
                                                               arity, seed):
    L, ref = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    _assert_pair_axioms_match_oracle_walk(
        L, ref, arity, _non_monotone_tables(L, arity, seed))


def _three_tables(L, arity, seed):
    """A seeded integral's step table (bottom stays, all else goes to
    top), the integral with one value moved inside the interval its
    cover neighbours allow, at a seeded point, and the integral."""
    f = sugeno_table(ls.sample_capacities(L, arity, 1, seed=seed)[0])
    step = FunctionTable(L, arity, [v if v == L.bottom else L.top
                                    for v in f.values], "step")
    rng = random.Random(seed)
    points = list(f.domain())
    moved = list(f.values)
    for pos in rng.sample(range(len(points)), len(points)):
        x = points[pos]
        lo, hi = L.bottom, L.top
        for i, v in enumerate(x):
            for c in range(L.size):
                y = f(x[:i] + (c,) + x[i + 1:])
                if v in L.upper_covers(c):
                    lo = L.join(lo, y)
                if c in L.upper_covers(v):
                    hi = L.meet(hi, y)
        options = [v for v in range(L.size) if v != moved[pos]
                   and L.leq(lo, v) and L.leq(v, hi)]
        if options:
            moved[pos] = rng.choice(options)
            break
    return [step, FunctionTable(L, arity, moved, "point"), f]


def _drain_plans(L, arity):
    """Grow both kept plans of L at arity to their end, through the
    supremal checks of a constant table, whose identity holds on every
    related pair."""
    constant = FunctionTable(L, arity, [L.top] * L.size ** arity,
                             "constant")
    for kind in (AxiomKind.COMONOTONE_SUPREMAL,
                 AxiomKind.G_COMONOTONE_SUPREMAL):
        assert axiom_check(constant, kind).holds


def _assert_lazy_plans_agree(build, arity, seed):
    """Each pair axiom on a fresh lattice, whose plans grow only as far
    as the checks read them, equals the same check on a lattice whose
    plans were drained first: verdict, witness and pairs_checked.
    The lazy lattice checks the step, point and integral tables in turn,
    so every later check starts from the plan an earlier one left."""
    lazy, drained = build(), build()
    _drain_plans(drained, arity)
    for f in _three_tables(lazy, arity, seed):
        twin = FunctionTable(drained, arity, f.values, f.name)
        for kind, _, _ in _PAIR_AXIOMS:
            assert axiom_check(f, kind) == axiom_check(twin, kind), (
                f.name, kind)


@pytest.mark.parametrize("build, arity", [
    (lambda: ls.chain(4), 3),
    (lambda: ls.boolean_lattice(2), 3),
    (lambda: ls.product([ls.chain(2), ls.chain(3)]), 2),
    (ls.n5, 3),
    (ls.m3, 3),
], ids=["chain4", "boolean2", "prod23", "N5", "M3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_lazy_plans_agree_with_drained_plans(build, arity, seed):
    _assert_lazy_plans_agree(build, arity, seed)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3), st.integers(0, 99))
def test_lazy_plans_agree_with_drained_plans_on_random_lattices(family,
                                                                arity, seed):
    if _closure_lattice(family)[0].size ** arity > 216:
        arity = 2
    _assert_lazy_plans_agree(lambda: _closure_lattice(family)[0], arity,
                             seed)


def test_a_failing_check_builds_part_of_the_plan():
    """On M3 at n=3 the step table fails comonotone_supremal early and
    leaves fewer than the relation's 1,065 pairs walked; grown to its
    end afterwards the plan equals the oracle walk, and a later infimal
    check reads on past the pairs the failing check walked, as on a
    drained plan."""
    kind = RelationKind.COMONOTONE
    drained = ls.m3()
    _drain_plans(drained, 3)
    for drain in (True, False):
        L = ls.m3()
        step, _, integral = _three_tables(L, 3, seed=0)
        failed = axiom_check(step, AxiomKind.COMONOTONE_SUPREMAL)
        built = L._pair_cache[3, kind, True].total
        assert not failed.holds
        assert failed.pairs_checked <= built < 1065
        if drain:
            _assert_plan_matches(L, ref_m3(), kind, 3)
        else:
            later = axiom_check(integral, AxiomKind.COMONOTONE_INFIMAL)
            twin = FunctionTable(drained, 3, integral.values)
            assert later == axiom_check(twin, AxiomKind.COMONOTONE_INFIMAL)
            assert later.pairs_checked > built


@pytest.mark.parametrize("build, arity", [
    (ls.m3, 3), (ls.n5, 3), (lambda: ls.boolean_lattice(2), 3),
    (lambda: ls.chain(4), 3)], ids=["M3", "N5", "boolean2", "chain4"])
def test_a_failing_check_stops_at_the_anchor_of_its_witness(build, arity):
    """On a fresh lattice, a pair axiom that fails leaves its kept plan
    built up to the anchor of the witness's x and not past it."""
    failures = 0
    for seed in range(3):
        for f in _three_tables(build(), arity, seed):
            for kind, _, _ in _PAIR_AXIOMS:
                L = build()
                res = axiom_check(FunctionTable(L, arity, f.values), kind)
                if res.holds:
                    continue
                failures += 1
                plan = L._pair_cache[arity, _PAIR_RELATION[kind][0], True]
                assert plan.anchors[-1][0] == encode(res.witness[0], L.size)
                assert plan.walk is not None
    assert failures > 0


def test_failing_checks_at_one_anchor_read_its_region_once(monkeypatch):
    """Two failing checks at one anchor of one plan rank their witnesses
    on one list of related positions, kept in the plan: ``_related`` is
    called once, and the second check equals one on a fresh lattice."""
    calls = []
    original = axioms_module._related

    def counted(lattice, kind, x):
        calls.append((kind, x))
        return original(lattice, kind, x)

    monkeypatch.setattr(axioms_module, "_related", counted)
    L = ls.m3()
    step = _three_tables(L, 3, seed=0)[0]
    twin = FunctionTable(L, 3, step.values)
    first = axiom_check(step, AxiomKind.COMONOTONE_SUPREMAL)
    second = axiom_check(twin, AxiomKind.COMONOTONE_SUPREMAL)
    assert not first.holds and second == first
    plan = L._pair_cache[3, RelationKind.COMONOTONE, True]
    a = encode(first.witness[0], L.size)
    assert calls == [(RelationKind.COMONOTONE, first.witness[0])]
    assert list(plan.regions) == [a]
    fresh = FunctionTable(ls.m3(), 3, step.values)
    assert axiom_check(fresh, AxiomKind.COMONOTONE_SUPREMAL) == second


def test_an_interrupted_growth_drops_the_kept_plan():
    """An exception escaping the walk while a check grows the plan
    leaves no truncated plan behind: the next check builds it afresh,
    equal to the oracle walk."""
    L = ls.boolean_lattice(2)
    kind = RelationKind.COMONOTONE
    step, _, integral = _three_tables(L, 3, seed=0)
    assert not axiom_check(step, AxiomKind.COMONOTONE_INFIMAL).holds
    plan = L._pair_cache[3, kind, True]
    assert plan.walk is not None

    def interrupted(walk):
        yield from itertools.islice(walk, 3)
        raise KeyboardInterrupt

    plan.walk = interrupted(plan.walk)
    with pytest.raises(KeyboardInterrupt):
        axiom_check(integral, AxiomKind.COMONOTONE_SUPREMAL)
    assert (3, kind, True) not in L._pair_cache
    # an integral on a distributive lattice holds on all 556 pairs
    assert axiom_check(integral, AxiomKind.COMONOTONE_SUPREMAL) == (
        AxiomCheck(AxiomKind.COMONOTONE_SUPREMAL, True, None, 556))
    _assert_plan_matches(L, ref_boolean(2), kind, 3)


def test_tables_that_are_not_monotone_share_a_kept_plan():
    """Tables that are not monotone read one plan of every pair, kept on
    the lattice beside the plan for monotone tables.  An exception
    escaping the walk while a check grows that plan drops it alone: the
    monotone plan stays, and the next check builds the other afresh,
    still equal to the oracle walk."""
    L = ls.boolean_lattice(2)
    kind = RelationKind.COMONOTONE
    integral = _three_tables(L, 3, seed=0)[2]
    first, second = _non_monotone_tables(L, 3, seed=0)[:2]
    assert axiom_check(integral, AxiomKind.COMONOTONE_SUPREMAL).holds
    monotone = L._pair_cache[3, kind, True]
    key, ordered = axioms_module._kept_plan(first, kind)
    assert key == (3, kind, False)

    def interrupted(walk):
        yield from ()
        raise KeyboardInterrupt

    ordered.walk = interrupted(ordered.walk)
    with pytest.raises(KeyboardInterrupt):
        axiom_check(second, AxiomKind.COMONOTONE_SUPREMAL)
    assert list(L._pair_cache) == [(3, kind, True)]
    assert L._pair_cache[3, kind, True] is monotone
    axiom_check(first, AxiomKind.COMONOTONE_SUPREMAL)
    shared = L._pair_cache[3, kind, False]
    assert shared is not ordered
    assert _assert_pair_axioms_match_oracle_walk(
        L, ref_boolean(2), 3, [second, first])[0]
    assert L._pair_cache[3, kind, False] is shared
    assert L._pair_cache[3, kind, True] is monotone


def test_pair_axioms_refuse_past_the_pair_guard_before_keeping_a_plan():
    """8,192 points make 33.6 M vector pairs, past the 10^7 guard: every
    pair axiom refuses before a plan is kept on the lattice, and on a
    table that is not monotone, before the gate runs or a plan of every
    pair is walked, with the same message."""
    L = ls.chain(2)
    f = FunctionTable(L, 13, [0] * 2 ** 13)
    jumble = FunctionTable(L, 13, [1] + [0] * (2 ** 13 - 1))
    for table in (f, jumble):
        for kind, _, _ in _PAIR_AXIOMS:
            with pytest.raises(EnumerationTooLarge, match=(
                    r"^33558528 vector pairs exceed the limit of 10000000")):
                axiom_check(table, kind)
        assert table._monotone is None
    assert L._pair_cache == {}


def test_relation_pairs_guard(chain11):
    with pytest.raises(EnumerationTooLarge):
        relation_pairs(chain11, 3, RelationKind.COMONOTONE, limit=10 ** 4)


def test_supremal_pair_counts_follow_the_relation(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2))
    f = sugeno_table(m)
    assert axiom_check(f, AxiomKind.COMONOTONE_SUPREMAL).pairs_checked == 36
    assert axiom_check(f, AxiomKind.G_COMONOTONE_SUPREMAL).pairs_checked == 38


def test_monotone_boundary_count_on_passing_table(chain3):
    f = sugeno_table(validate_capacity(chain3, 2, (0, 1, 1, 2)))
    res = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
    # 2 boundary probes plus one probe per cover edge of the domain
    assert res.pairs_checked == 2 + 2 * 3 * 2


# -- the seven conjunctions ----------------------------------------------------


def test_integral_report_is_consistent(chain3):
    f = sugeno_table(validate_capacity(chain3, 2, (0, 0, 1, 2)))
    report = characterization_report(f)
    assert report.consistent
    assert report.condition_verdicts() == (True,) * 7
    assert all(check.holds for check in report.axioms.values())
    assert report.table_name == f.name
    assert report.pairs_checked_total == sum(
        c.pairs_checked for c in report.axioms.values())


def test_h_report_splits_the_conditions(chain3):
    """The step table separates the seven conjunctions: only the two
    built purely from quantified supremal/infimal identities accept it."""
    report = characterization_report(h_table(chain3))
    assert not report.consistent
    assert report.condition_verdicts() == (
        False, False, False, False, True, True, False)


def test_characterization_labels():
    labels = [characterization_label(pair) for pair in CHARACTERIZATIONS]
    assert labels[0] == "inf_homogeneous & g_comonotone_supremal"
    assert labels[4] == "comonotone_supremal & comonotone_infimal"
    assert labels[6] == "boolean_sup_homogeneous & boolean_inf_homogeneous"


def test_report_gate_rejects_non_aggregations(chain3):
    broken = FunctionTable(chain3, 2, (1,) + (2,) * 8, name="no_bottom")
    with pytest.raises(NotAggregation) as info:
        characterization_report(broken)
    assert info.value.witness == ("boundary", (0, 0))


def test_condition_satisfier_counts_over_all_tables(chain3):
    """Exhaustive census over the 136 binary aggregation tables on the
    three-element chain: five conjunctions pin down exactly the 9
    integral tables, while the two purely-quantified ones accept 27
    tables each, splitting the verdicts on 18 tables."""
    counts = [0] * 7
    inconsistent = 0
    first_split = None
    satisfier_sets = [set() for _ in range(7)]
    for f in enumerate_aggregations(chain3, 2):
        report = characterization_report(f)
        verdicts = report.condition_verdicts()
        for i, v in enumerate(verdicts):
            counts[i] += v
            if v:
                satisfier_sets[i].add(f.values)
        if not report.consistent:
            inconsistent += 1
            if first_split is None:
                first_split = (f.values, verdicts)
    assert counts == [9, 9, 9, 9, 27, 27, 9]
    assert inconsistent == 18
    assert first_split == ((0, 0, 0, 0, 0, 0, 0, 0, 2),
                           (False, False, False, False, True, True, False))
    integral_values = {sugeno_table(m).values
                       for m in enumerate_capacities(ls.chain(3), 2)}
    # the five exact conjunctions agree with the integral set
    for i in (0, 1, 2, 3, 6):
        assert satisfier_sets[i] == integral_values
    # the two loose ones strictly contain it
    for i in (4, 5):
        assert satisfier_sets[i] > integral_values


def test_first_split_table_verdicts_in_detail(chain3):
    # top only at the top corner: all four quantified identities hold,
    # every homogeneity flavour fails, and so does idempotency
    f = FunctionTable(chain3, 2, (0, 0, 0, 0, 0, 0, 0, 0, 2), name="corner")
    for kind in (AxiomKind.COMONOTONE_SUPREMAL, AxiomKind.COMONOTONE_INFIMAL,
                 AxiomKind.G_COMONOTONE_SUPREMAL,
                 AxiomKind.G_COMONOTONE_INFIMAL):
        assert axiom_check(f, kind).holds, kind
    for kind in (AxiomKind.INF_HOMOGENEOUS, AxiomKind.SUP_HOMOGENEOUS,
                 AxiomKind.BOOLEAN_INF_HOMOGENEOUS,
                 AxiomKind.BOOLEAN_SUP_HOMOGENEOUS, AxiomKind.IDEMPOTENT):
        assert not axiom_check(f, kind).holds, kind


# -- implications among the axioms ---------------------------------------------


def test_full_homogeneity_forces_idempotency(chain3):
    for f in enumerate_aggregations(chain3, 2):
        inf_h = axiom_check(f, AxiomKind.INF_HOMOGENEOUS).holds
        sup_h = axiom_check(f, AxiomKind.SUP_HOMOGENEOUS).holds
        if inf_h or sup_h:
            assert axiom_check(f, AxiomKind.IDEMPOTENT).holds, f.values


def test_boolean_pair_forces_idempotency(chain3):
    for f in enumerate_aggregations(chain3, 2):
        if (axiom_check(f, AxiomKind.BOOLEAN_INF_HOMOGENEOUS).holds
                and axiom_check(f, AxiomKind.BOOLEAN_SUP_HOMOGENEOUS).holds):
            assert axiom_check(f, AxiomKind.IDEMPOTENT).holds, f.values


def test_g_quantified_implies_comonotone_quantified(chain3):
    for f in enumerate_aggregations(chain3, 2):
        if axiom_check(f, AxiomKind.G_COMONOTONE_SUPREMAL).holds:
            assert axiom_check(f, AxiomKind.COMONOTONE_SUPREMAL).holds
        if axiom_check(f, AxiomKind.G_COMONOTONE_INFIMAL).holds:
            assert axiom_check(f, AxiomKind.COMONOTONE_INFIMAL).holds


@pytest.mark.xfail(strict=True, reason=(
    "join-preservation over comonotone pairs does not force Boolean "
    "sup-homogeneity: the step table (bottom at the bottom corner, top "
    "elsewhere) preserves comonotone joins yet fails the cube identity"))
def test_comonotone_supremal_forces_boolean_sup_homogeneity(chain3):
    for f in enumerate_aggregations(chain3, 2):
        if axiom_check(f, AxiomKind.COMONOTONE_SUPREMAL).holds:
            assert axiom_check(f, AxiomKind.BOOLEAN_SUP_HOMOGENEOUS).holds, \
                f.values


def test_step_table_is_the_join_composed_with_a_step(chain3):
    # h is g(join(x)) for the monotone step g: 0,a,1 -> 0,1,1, which is
    # why it inherits join preservation without idempotency
    g = {0: 0, 1: 2, 2: 2}
    composed = table_from_function(chain3, 2,
                                   lambda a, b: g[max(a, b)], name="g_join")
    assert composed.values == h_table(chain3).values


# -- enumeration and sampling ----------------------------------------------------


def test_aggregation_counts():
    assert sum(1 for _ in enumerate_aggregations(ls.chain(3), 2)) == 136
    assert sum(1 for _ in enumerate_aggregations(ls.chain(3), 1)) == 3
    assert sum(1 for _ in enumerate_aggregations(ls.chain(2), 2)) == 4
    assert sum(1 for _ in enumerate_aggregations(ls.boolean_lattice(2), 1)) == 16


def test_aggregation_enumeration_matches_brute_force():
    for build, ref, arity in ((ls.chain(2), ref_chain(2), 2),
                              (ls.chain(3), ref_chain(3), 2),
                              (ls.chain(3), ref_chain(3), 1)):
        ours = [f.values for f in enumerate_aggregations(build, arity)]
        theirs = ref_aggregations(ref, arity)
        assert ours == sorted(theirs)
        assert ours == sorted(ours)


def test_every_enumerated_table_passes_the_gate(chain3):
    for f in enumerate_aggregations(chain3, 2):
        assert axiom_check(f, AxiomKind.MONOTONE_BOUNDARY).holds


def test_aggregation_domain_guard(bool2):
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_aggregations(bool2, 2))  # 16 points > the cap of 9
    assert sum(1 for _ in enumerate_aggregations(bool2, 2,
                                                 domain_limit=16)) > 0


def _assert_built_monotone(L, ref, arity):
    """Every table sample_aggregations, enumerate_aggregations (on
    domains within its cap) and sugeno_table in both forms build is
    flagged monotone, and passes the sliced gate and the oracle's
    sweep over every comparable pair of points."""
    capacities = ls.sample_capacities(L, arity, 3, seed=5)
    tables = sample_aggregations(L, arity, 5, seed=5) + [
        sugeno_table(m, form) for m in capacities for form in SugenoForm]
    if L.size ** arity <= 9:
        tables += list(enumerate_aggregations(L, arity))
    edges = list(L.cover_pairs())
    for f in tables:
        assert f._monotone is True
        assert _monotone_along_covers(L, arity, f.values, edges)
        assert ref_monotone_boundary(ref, arity, dict(zip(f.domain(),
                                                          f.values)))
        twin = FunctionTable(L, arity, f.values)
        assert (axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
                == axiom_check(twin, AxiomKind.MONOTONE_BOUNDARY))
    # other tables wait for the gate
    for f in (FunctionTable(L, arity, tables[0].values),
              table_from_function(L, arity, lambda *x: L.top),
              parse_table(format_table(tables[0]), L)):
        assert f._monotone is None


@pytest.mark.parametrize("name, arity", [
    (name, arity) for name in _TABLE_ZOO for arity in (1, 2, 3)
    if _TABLE_ZOO[name][0].size ** arity <= 64])
def test_tables_built_monotone_pass_the_gate(name, arity):
    _assert_built_monotone(*_TABLE_ZOO[name], arity)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 2))
def test_tables_built_monotone_pass_the_gate_on_random_lattices(family,
                                                                arity):
    _assert_built_monotone(*_closure_lattice(family), arity)


def test_the_gate_runs_the_slices_only_on_unflagged_tables(monkeypatch):
    """A table flagged monotone when built passes the gate on its two
    boundary probes alone; a parsed table of the same values runs the
    cover slices once, and then keeps their verdict."""
    L = ls.boolean_lattice(2)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _monotone_along_covers(*args)

    monkeypatch.setattr(axioms_module, "_monotone_along_covers", counted)
    f = sugeno_table(ls.sample_capacities(L, 3, 1, seed=2)[0])
    parsed = parse_table(format_table(f), L)
    gate = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
    assert gate == AxiomCheck(AxiomKind.MONOTONE_BOUNDARY, True, None,
                              2 + 3 * 16 * 4)
    assert calls == []
    assert axiom_check(parsed, AxiomKind.MONOTONE_BOUNDARY) == gate
    assert calls == [3]
    assert axiom_check(parsed, AxiomKind.COMONOTONE_SUPREMAL).holds
    assert calls == [3]


def test_aggregation_sampling_determinism(chain4):
    a = sample_aggregations(chain4, 2, 15, seed=42)
    b = sample_aggregations(chain4, 2, 15, seed=42)
    assert [f.values for f in a] == [f.values for f in b]
    c = sample_aggregations(chain4, 2, 15, seed=43)
    assert [f.values for f in a] != [f.values for f in c]


def test_sampled_tables_are_aggregations(n5, prod23):
    for L in (n5, prod23):
        for f in sample_aggregations(L, 2, 10, seed=5):
            assert axiom_check(f, AxiomKind.MONOTONE_BOUNDARY).holds


def test_median_table_is_an_integral_satisfier(chain3):
    report = characterization_report(median_table(chain3))
    assert report.consistent
    assert report.condition_verdicts() == (True,) * 7


_HOMOGENEITY_AXIOMS = (
    (AxiomKind.INF_HOMOGENEOUS, "meet", False),
    (AxiomKind.SUP_HOMOGENEOUS, "join", False),
    (AxiomKind.BOOLEAN_INF_HOMOGENEOUS, "meet", True),
    (AxiomKind.BOOLEAN_SUP_HOMOGENEOUS, "join", True),
)


@pytest.mark.parametrize("L, ref, arity", [
    (ls.chain(4), ref_chain(4), 3),
    (ls.boolean_lattice(2), ref_boolean(2), 3),
    (ls.product([ls.chain(2), ls.chain(3)]),
     ref_product([ref_chain(2), ref_chain(3)]), 2),
    (ls.n5(), ref_n5(), 2),
    (ls.m3(), ref_m3(), 1),
    (ls.chain(1), ref_chain(1), 2),
    # one point at arity 1: a getter of one position
    (ls.chain(1), ref_chain(1), 1),
    (ls.chain(1), ref_chain(1), 3),
    # built through the API: element indices past one byte
    (ls.chain(300), _RefChain(300), 1),
], ids=["chain4", "boolean2", "prod23", "N5", "M3", "chain1", "chain1-n1",
        "chain1-n3", "chain300"])
def test_homogeneity_matches_an_ordered_oracle_walk(L, ref, arity):
    """Each homogeneity axiom's verdict, witness and pairs_checked equal
    a walk over c, then x in product order (the {bottom, top} cube for
    the Boolean kinds), comparing f(c op x) with c op f(x) through the
    oracle and stopping at the first failure."""
    tables = sample_aggregations(L, arity, 6, seed=4) + [
        sugeno_table(m) for m in ls.sample_capacities(L, arity, 2, seed=4)]
    failures = 0
    for f in tables:
        for kind, opname, boolean in _HOMOGENEITY_AXIOMS:
            expected = _homogeneity_walk(f, ref, opname, boolean)
            res = axiom_check(f, kind)
            assert (res.holds, res.witness, res.pairs_checked) == expected
            failures += not res.holds
    assert failures or L.size == 1


def _homogeneity_walk(f, ref, opname, boolean):
    """(holds, witness, pairs_checked) of one homogeneity axiom by a walk
    over c, then x in product order (the {bottom, top} cube for the
    Boolean kinds), through the oracle."""
    op = getattr(ref, opname)
    letters = (ref.bottom, ref.top) if boolean else range(ref.size)
    count = 0
    for c in range(ref.size):
        for x in itertools.product(letters, repeat=f.arity):
            count += 1
            if f(tuple(op(c, v) for v in x)) != op(c, f(x)):
                return False, (c, x), count
    return True, None, count


def _diagonal_step(L, arity, infside, v):
    """The meet (inf side) or join of the coordinates on chain L, with
    the diagonal point (v, ..., v) moved one step down (up): monotone,
    and its homogeneity on that side first fails at c = v."""
    def fn(*x):
        if x == (v,) * arity:
            return v - 1 if infside else v + 1
        return min(x) if infside else max(x)
    return table_from_function(L, arity, fn, name="step%d" % v)


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("kind,opname,boolean", _HOMOGENEITY_AXIOMS,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_homogeneity_positions_are_shared_across_tables(kind, opname,
                                                        boolean, arity):
    """One lattice checks a table failing at c = 1, an integral, then a
    table failing at c = 2, the last c where a check on chain:4 can fail
    (c = bottom and c = top always hold); each check equals the check on
    a fresh lattice and the oracle walk, so the positions kept from one
    check serve the next."""
    L, ref = ls.chain(4), ref_chain(4)
    infside = opname == "meet"
    integral = sugeno_table(ls.sample_capacities(L, arity, 1, seed=9)[0])
    tables = [_diagonal_step(L, arity, infside, 1), integral,
              _diagonal_step(L, arity, infside, 2)]
    for f, failing_c in zip(tables, (1, None, 2)):
        res = axiom_check(f, kind)
        fresh = ls.chain(4)
        again = axiom_check(FunctionTable(fresh, arity, f.values), kind)
        expected = _homogeneity_walk(f, ref, opname, boolean)
        assert (res.holds, res.witness, res.pairs_checked) == expected
        assert (again.holds, again.witness, again.pairs_checked) == expected
        assert (res.witness or (None,))[0] == failing_c
        # the first check builds, for every c, the getter of f at the
        # points c op x and the byte map v -> c op v
        points, getters, scales = L._homogeneity[arity, kind]
        letters = (L.bottom, L.top) if boolean else range(L.size)
        domain = list(itertools.product(letters, repeat=arity))
        assert [decode(p, L.size, arity) for p in points] == domain
        op = getattr(ref, opname)
        for c, (get, scale) in enumerate(zip(getters, scales)):
            assert tuple(get(range(L.size ** arity))) == tuple(
                encode([op(c, v) for v in x], L.size) for x in domain)
            assert scale == bytes(op(c, v) for v in range(L.size)) + bytes(
                256 - L.size)
    assert list(L._homogeneity) == [(arity, kind)]


# -- the order-mask filling against the dense-matrix algorithm it replaced --


def _dense_order_matrix(L, points):
    return [[all(L.leq(a, b) for a, b in zip(x, y)) for y in points]
            for x in points]


def _dense_sample(L, arity, count, seed):
    """The sampler as it was with a dense |L|^n x |L|^n order matrix."""
    rng = random.Random(seed)
    points = list(itertools.product(range(L.size), repeat=arity))
    dom_leq = _dense_order_matrix(L, points)
    bottom_pos = points.index((L.bottom,) * arity)
    top_pos = points.index((L.top,) * arity)
    out = []
    for _ in range(count):
        values = [L.bottom] * len(points)
        for pos in range(len(points)):
            if pos in (bottom_pos, top_pos):
                values[pos] = L.bottom if pos == bottom_pos else L.top
                continue
            floor, ceil = L.bottom, L.top
            for q in range(pos):
                if dom_leq[q][pos]:
                    floor = L.join(floor, values[q])
                if dom_leq[pos][q]:
                    ceil = L.meet(ceil, values[q])
            values[pos] = rng.choice([v for v in range(L.size)
                                      if L.leq(floor, v) and L.leq(v, ceil)])
        out.append(tuple(values))
    return out


def _dense_enumerate(L, arity):
    """The exhaustive search as it was with the dense order matrix."""
    points = list(itertools.product(range(L.size), repeat=arity))
    dom_leq = _dense_order_matrix(L, points)
    fixed = {points.index((L.bottom,) * arity): L.bottom,
             points.index((L.top,) * arity): L.top}
    values = [L.bottom] * len(points)
    out = []

    def extend(pos):
        if pos == len(points):
            out.append(tuple(values))
            return
        for v in ((fixed[pos],) if pos in fixed else range(L.size)):
            if all(not (dom_leq[q][pos] and not L.leq(values[q], v))
                   and not (dom_leq[pos][q] and not L.leq(v, values[q]))
                   for q in range(pos)):
                values[pos] = v
                extend(pos + 1)
        values[pos] = L.bottom

    extend(0)
    return out


def _pinned_lattice(spec):
    if spec == "unsorted-N5":
        # element indices that are no linear extension of the order, so
        # that earlier points can lie above later ones
        return ls.from_covers("unsorted-N5", ["1", "b", "c", "0", "a"],
                              [("0", "a"), ("a", "b"), ("b", "1"),
                               ("0", "c"), ("c", "1")])
    return ls.build_lattice(spec)


@pytest.mark.parametrize("spec,arity,seed", [
    ("boolean:2", 3, 7), ("chain:4", 3, 7), ("builtin:N5", 3, 7),
    ("builtin:M3", 3, 11), ("chain:3", 2, 7), ("chain:5", 3, 2),
    ("prod:chain:2xchain:3", 2, 0), ("unsorted-N5", 3, 7)])
def test_samples_pinned_to_the_dense_algorithm(spec, arity, seed):
    L = _pinned_lattice(spec)
    ours = [f.values for f in sample_aggregations(L, arity, 6, seed)]
    assert ours == _dense_sample(L, arity, 6, seed)


@pytest.mark.parametrize("spec,arity", [
    ("chain:3", 2), ("chain:2", 3), ("builtin:N5", 1), ("builtin:M3", 1),
    ("chain:9", 1), ("unsorted-N5", 1)])
def test_enumeration_pinned_to_the_dense_algorithm(spec, arity):
    L = _pinned_lattice(spec)
    ours = [f.values for f in enumerate_aggregations(L, arity)]
    assert ours == _dense_enumerate(L, arity)


def _full_bounds_fill(L, arity):
    """The aggregation fill as it was, bounded by every earlier point
    below and above each point rather than the maximal and minimal
    ones."""
    points = list(itertools.product(range(L.size), repeat=arity))
    leq = _dense_order_matrix(L, points)
    bounds = [(tuple(q for q in range(pos) if leq[q][pos]),
               tuple(q for q in range(pos) if leq[pos][q]))
              for pos in range(len(points))]
    pinned = {points.index((L.bottom,) * arity): L.bottom,
              points.index((L.top,) * arity): L.top}
    return _MonotoneFill(L, bounds, pinned)


def _assert_fill_matches_full_bounds(L, arity, seed):
    """The bounds are the maximal (minimal) points of the full bounds,
    and the draws and tables equal the full-bounds fill's."""
    ours, full = _aggregation_fill(L, arity), _full_bounds_fill(L, arity)
    leq = _dense_order_matrix(
        L, list(itertools.product(range(L.size), repeat=arity)))
    assert ours.pinned == full.pinned
    for (lo, hi), (full_lo, full_hi) in zip(ours.bounds, full.bounds):
        assert lo == tuple(q for q in full_lo if not any(
            leq[q][r] for r in full_lo if r != q))
        assert hi == tuple(q for q in full_hi if not any(
            leq[r][q] for r in full_hi if r != q))
    assert list(ours.draws(8, seed)) == list(full.draws(8, seed))
    assert (list(itertools.islice(ours.tables(), 400))
            == list(itertools.islice(full.tables(), 400)))


@pytest.mark.parametrize("spec,arity", [
    ("chain:2", 3), ("chain:3", 2), ("chain:4", 2), ("chain:5", 1),
    ("boolean:2", 2), ("builtin:N5", 2), ("builtin:M3", 2),
    ("unsorted-N5", 1), ("unsorted-N5", 2)])
def test_fill_bounds_keep_the_options_of_the_full_bounds(spec, arity):
    _assert_fill_matches_full_bounds(_pinned_lattice(spec), arity, seed=5)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 2), st.integers(0, 99))
def test_fill_bounds_keep_the_options_on_random_lattices(family, arity,
                                                         seed):
    L, _ = _closure_lattice(family)
    _assert_fill_matches_full_bounds(L, arity, seed)


@pytest.mark.parametrize("spec,entries,full_entries", [
    ("boolean:2", 192, 665), ("chain:4", 144, 936), ("builtin:N5", 375, 2072)])
def test_fill_bounds_are_the_maximal_and_minimal_points(spec, entries,
                                                        full_entries):
    L = ls.build_lattice(spec)
    for fill, count in ((_aggregation_fill(L, 3), entries),
                        (_full_bounds_fill(L, 3), full_entries)):
        assert sum(len(lo) + len(hi) for lo, hi in fill.bounds) == count


# -- the sliced aggregation gate against the per-point loop ----------------


def _per_point_gate(f):
    """The aggregation gate as one loop: the two boundary probes, then one
    probe per (point, coordinate, upper cover of that coordinate) in
    product order, up to the first failing step.  Returns the verdict,
    the witness and the number of probes."""
    L, n = f.lattice, f.arity
    checked = 0
    for corner in (L.bottom, L.top):
        checked += 1
        if f((corner,) * n) != corner:
            return False, ("boundary", (corner,) * n), checked
    for x in f.domain():
        for i, v in enumerate(x):
            for c in L.upper_covers(v):
                checked += 1
                y = x[:i] + (c,) + x[i + 1:]
                if not L.leq(f(x), f(y)):
                    return False, ("monotone", x, y), checked
    return True, None, checked


def _gate_tables(L, arity, seed):
    """Every aggregation table where the domain is small enough to list,
    sampled ones, and sampled integrals with one value moved, most of
    which fail the gate."""
    rng = random.Random(seed)
    tables = sample_aggregations(L, arity, 4, seed)
    if L.size ** arity <= 9:
        tables += enumerate_aggregations(L, arity)
    for m in sample_capacities(L, arity, 3, seed):
        for _ in range(4):
            values = list(sugeno_table(m).values)
            values[rng.randrange(len(values))] = rng.randrange(L.size)
            tables.append(FunctionTable(L, arity, values, name="moved"))
    return tables


def _check_gate(L, arity, seed):
    """The sliced gate's verdict, witness and count equal the per-point
    loop's and its verdict the definition's; a holding gate counts the
    closed form, and recognize refuses a failing table with the gate's
    witness under both methods, with and without the override.  Returns
    the number of failing tables."""
    ref = RefLattice(L.size, L.leq)
    edges = len(list(L.cover_pairs()))
    failures = 0
    for f in _gate_tables(L, arity, seed):
        res = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
        assert (res.holds, res.witness, res.pairs_checked) == \
            _per_point_gate(f), f.values
        table = dict(zip(f.domain(), f.values))
        assert res.holds == ref_monotone_boundary(ref, arity, table)
        if res.holds:
            assert res.pairs_checked == \
                2 + arity * L.size ** (arity - 1) * edges
            continue
        failures += 1
        for method in RecognitionMethod:
            for allow in (False, True):
                with pytest.raises(NotAggregation) as info:
                    recognize(f, method, allow)
                assert info.value.witness == res.witness
    return failures


@pytest.mark.parametrize("spec,arity", [
    ("chain:3", 1), ("chain:3", 2), ("chain:3", 3), ("chain:3", 4),
    ("chain:2", 5), ("chain:11", 1), ("chain:11", 2), ("boolean:2", 2),
    ("boolean:2", 3), ("builtin:N5", 2), ("builtin:M3", 2),
    ("unsorted-N5", 2), ("unsorted-N5", 3)])
def test_sliced_gate_matches_the_per_point_loop(spec, arity):
    L = _pinned_lattice(spec)
    assert sum(_check_gate(L, arity, seed) for seed in (0, 1)) > 0


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_sliced_gate_matches_the_per_point_loop_on_random_lattices(
        family, arity, seed):
    L, _ = _closure_lattice(family)
    if L.size ** arity > 125:
        arity = 2
    _check_gate(L, arity, seed)
