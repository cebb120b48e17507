import itertools
import random

import pytest

import lattice_sugeno as ls
from lattice_sugeno import (
    CHARACTERIZATIONS,
    ArityMismatch,
    AxiomKind,
    EnumerationTooLarge,
    FunctionTable,
    NotAggregation,
    RelationKind,
    UnknownElement,
    axiom_check,
    characterization_label,
    characterization_report,
    enumerate_aggregations,
    enumerate_capacities,
    relation_pairs,
    sample_aggregations,
    sugeno_table,
    table_from_function,
    validate_capacity,
)

from lattice_sugeno.axioms import pair_plan

from _oracles import (
    ref_aggregations,
    ref_axioms,
    ref_boolean,
    ref_chain,
    ref_comonotone,
    ref_g_com,
    ref_m3,
    ref_n5,
    ref_product,
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


def test_table_equality_ignores_name(chain3):
    f = FunctionTable(chain3, 1, (0, 1, 2), name="id")
    g = FunctionTable(chain3, 1, (0, 1, 2), name="other")
    assert f == g and hash(f) == hash(g)


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
    """One pair plan per (arity, kind) is built once and shared by every
    later pair_plan call; relation_pairs, read off the verdict rows,
    repeats itself and runs x lex <= y, in order."""
    L = ls.chain(3)
    first = relation_pairs(L, 2, RelationKind.COMONOTONE)
    plan = pair_plan(L, 2, RelationKind.COMONOTONE)
    assert relation_pairs(L, 2, RelationKind.COMONOTONE) == first
    assert pair_plan(L, 2, RelationKind.COMONOTONE) is plan
    assert list(L._pair_cache) == [(2, RelationKind.COMONOTONE)]
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
    points = list(itertools.product(range(L.size), repeat=arity))
    tables = sample_aggregations(L, arity, 6, seed=11) + [
        sugeno_table(m) for m in ls.sample_capacities(L, arity, 2, seed=11)]
    failures = 0
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
                witness is None, witness, count)
            failures += witness is not None
    assert failures


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
