import itertools
import random

import pytest

import lattice_sugeno as ls
import lattice_sugeno.recognizer as recognizer_module
from lattice_sugeno.cli import build_parser
from lattice_sugeno import (
    AxiomKind,
    FunctionTable,
    NotAggregation,
    NotDistributive,
    RecognitionMethod,
    axiom_check,
    enumerate_aggregations,
    enumerate_capacities,
    recognize,
    recover_capacity,
    sugeno_table,
    table_from_function,
    validate_capacity,
)

from _oracles import RefLattice, ref_sugeno_inf, ref_sugeno_sup


def h_table(chain3):
    return table_from_function(
        chain3, 2, lambda a, b: 0 if (a, b) == (0, 0) else 2, name="h")


def test_method_tokens():
    parser = build_parser()
    argv = ["recognize", "--lattice", "chain:2", "--table", "f.tbl"]
    assert (RecognitionMethod(parser.parse_args(argv).method)
            is RecognitionMethod.BOOLEAN_HOMOGENEITY)
    assert (RecognitionMethod(parser.parse_args(
        argv + ["--method", "direct"]).method)
            is RecognitionMethod.DIRECT_COMPARISON)
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["--method", "guess"])


# -- capacity recovery -------------------------------------------------------


def test_recover_reads_the_characteristic_vectors(chain3):
    m = recover_capacity(h_table(chain3))
    assert m.values == (0, 2, 2, 2)
    assert m.name == "rec_h"


def test_recover_projection_capacity(bool2):
    first = table_from_function(bool2, 2, lambda a, b: a, name="proj1")
    m = recover_capacity(first)
    # top exactly on the subsets containing coordinate 1
    assert m.values == (0, 3, 0, 3)


def test_recover_round_trips_through_the_integral(chain3, bool2):
    for L, arity in ((chain3, 2), (bool2, 2)):
        for m in enumerate_capacities(L, arity):
            assert recover_capacity(sugeno_table(m)).values == m.values


def test_recover_rejects_non_aggregations(chain3):
    broken = FunctionTable(chain3, 2, (1,) + (2,) * 8, name="no_bottom")
    with pytest.raises(NotAggregation):
        recover_capacity(broken)


# -- recognition of genuine integrals ------------------------------------------


def test_integral_recognized_with_counts(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2), name="sym")
    f = sugeno_table(m)
    res = recognize(f)
    assert res.accepted
    assert res.method is RecognitionMethod.BOOLEAN_HOMOGENEITY
    assert res.capacity == m
    assert res.witness is None
    assert res.pairs_checked == 24  # 2 cube homogeneity sweeps of 3 * 4
    assert res.verification_points == 18  # 9 points, both forms


def test_integral_recognized_directly(chain3):
    m = validate_capacity(chain3, 2, (0, 0, 1, 2))
    res = recognize(sugeno_table(m), RecognitionMethod.DIRECT_COMPARISON)
    assert res.accepted
    assert res.capacity == m
    assert res.pairs_checked == 18
    assert res.verification_points == 18


def test_methods_agree_on_every_table(chain3):
    accepted = []
    for f in enumerate_aggregations(chain3, 2):
        rb = recognize(f, RecognitionMethod.BOOLEAN_HOMOGENEITY)
        rd = recognize(f, RecognitionMethod.DIRECT_COMPARISON)
        assert rb.accepted == rd.accepted, f.values
        if rb.accepted:
            assert rb.capacity == rd.capacity
            accepted.append(f.values)
    assert len(accepted) == 9
    integral_values = {sugeno_table(m).values
                       for m in enumerate_capacities(ls.chain(3), 2)}
    assert set(accepted) == integral_values


def test_double_recovery_is_stable(chain3):
    for m in enumerate_capacities(chain3, 2):
        once = recognize(sugeno_table(m)).capacity
        again = recognize(sugeno_table(once)).capacity
        assert once == again == m


def test_median_table_recognized(chain3):
    med = table_from_function(
        chain3, 2,
        lambda a, b: max(min(a, b), min(1, max(a, b))), name="med")
    res = recognize(med)
    assert res.accepted
    assert res.capacity.values == (0, 1, 1, 2)


def test_recognized_on_products(prod23):
    for m in enumerate_capacities(prod23, 2):
        assert recognize(sugeno_table(m)).accepted


# -- rejection with witnesses ----------------------------------------------------


def test_step_table_rejected_boolean_method(chain3):
    res = recognize(h_table(chain3))
    assert not res.accepted
    assert res.capacity is None
    assert res.witness == ("boolean_inf", 1, (0, 2))
    assert res.pairs_checked == 6
    assert res.verification_points == 0


def test_step_table_rejected_direct_method(chain3):
    res = recognize(h_table(chain3), RecognitionMethod.DIRECT_COMPARISON)
    assert not res.accepted
    assert res.witness == ("disagreement", (0, 1), 2, 1)
    assert res.pairs_checked == 3
    assert res.verification_points == 0


def test_inf_side_failures_reported_before_sup_side(chain3):
    # fails only the inf identity: the witness carries the inf tag
    sup_only = FunctionTable(chain3, 2, (0, 0, 0, 0, 1, 1, 1, 1, 2))
    res = recognize(sup_only)
    assert res.witness == ("boolean_inf", 1, (2, 0))
    assert res.pairs_checked == 7
    # fails only the sup identity: the inf sweep completes first
    inf_only = FunctionTable(chain3, 2, (0, 0, 0, 0, 1, 1, 0, 2, 2))
    res = recognize(inf_only)
    assert res.witness == ("boolean_sup", 1, (2, 0))
    assert res.pairs_checked == 12 + 7


def test_pointwise_recheck_always_runs_and_never_disagrees(chain3, chain4):
    """Any table clearing both cube sweeps must also clear the full
    pointwise re-check (that is the characterization itself); the
    re-check still runs every time, visiting 2 * k^n points."""
    for L, arity in ((chain3, 2), (chain4, 1)):
        for f in enumerate_aggregations(L, arity):
            bi = axiom_check(f, AxiomKind.BOOLEAN_INF_HOMOGENEOUS).holds
            bs = axiom_check(f, AxiomKind.BOOLEAN_SUP_HOMOGENEOUS).holds
            if bi and bs:
                res = recognize(f)
                assert res.accepted
                assert res.verification_points == 2 * L.size ** arity


@pytest.mark.parametrize("method", list(RecognitionMethod))
def test_recognize_runs_the_aggregation_gate_once(chain3, n5, monkeypatch,
                                                  method):
    """The gate runs at most once, and only where it can change the
    outcome: never on an accepted table, since the re-check implies it;
    once on a rejected table and before NotDistributive; once in
    recover_capacity."""
    gates = []

    def counting(f, kind, *args, **kwargs):
        gates.append(kind is AxiomKind.MONOTONE_BOUNDARY)
        return axiom_check(f, kind, *args, **kwargs)

    def gates_run(f, **kwargs):
        gates.clear()
        recognize(f, method, **kwargs)
        return sum(gates)

    monkeypatch.setattr(recognizer_module, "axiom_check", counting)
    m = validate_capacity(chain3, 2, (0, 1, 1, 2))
    assert gates_run(sugeno_table(m)) == 0
    assert gates_run(h_table(chain3)) == 1
    integral5 = sugeno_table(next(iter(enumerate_capacities(n5, 2))))
    step5 = table_from_function(
        n5, 2, lambda a, b: 4 if (a, b) != (0, 0) else 0, name="step5")
    assert gates_run(integral5, allow_nondistributive=True) == 0
    assert gates_run(step5, allow_nondistributive=True) == 1
    for f in (integral5, step5):
        with pytest.raises(NotDistributive):
            gates_run(f)
        assert sum(gates) == 1
    gates.clear()
    assert recover_capacity(sugeno_table(m)).values == m.values
    assert sum(gates) == 1


def test_gate_rejects_non_aggregations(chain3):
    broken = FunctionTable(chain3, 2, (0,) + (2,) * 7 + (1,), name="droop")
    with pytest.raises(NotAggregation) as info:
        recognize(broken)
    assert info.value.witness is not None


# -- non-distributive lattices ------------------------------------------------------


def test_pentagon_refused_by_default(n5):
    f = sugeno_table(next(iter(enumerate_capacities(n5, 2))))
    with pytest.raises(NotDistributive) as info:
        recognize(f)
    assert "allow_nondistributive" in str(info.value)


def test_pentagon_override_compares_sup_form_only(n5):
    for m in itertools.islice(enumerate_capacities(n5, 2), 5):
        f = sugeno_table(m)  # sup-of-meets tabulation
        res = recognize(f, allow_nondistributive=True)
        assert res.accepted
        assert res.method is RecognitionMethod.DIRECT_COMPARISON
        assert res.capacity.values == m.values
        # only the sup form is compared, one pass over the 25 points
        assert res.verification_points == 25


def test_pentagon_override_rejects_non_integrals(n5):
    top_heavy = table_from_function(
        n5, 2, lambda a, b: 4 if (a, b) != (0, 0) else 0, name="step5")
    res = recognize(top_heavy, allow_nondistributive=True)
    assert not res.accepted
    assert res.witness[0] == "disagreement"


# -- the tabulated re-check against the per-point loop it replaced -----------


def _per_point_verify(f, m, forms):
    """The pointwise re-check as it was: one subset sweep per point and
    form, in product order, sup before inf.  The integral's values come
    from the literal double loop over a reference built from the order
    alone, not from the package's kernel."""
    ref = RefLattice(m.lattice.size, m.lattice.leq)
    oracle = {ls.SugenoForm.SUP_OF_MEETS: ref_sugeno_sup,
              ls.SugenoForm.INF_OF_JOINS: ref_sugeno_inf}
    points = 0
    for x, fx in zip(f.domain(), f.values):
        for form in forms:
            points += 1
            expected = oracle[form](ref, m.values, x)
            if fx != expected:
                return ("disagreement", x, fx, expected), points
    return None, points


def _perturbed_tables(L, arity, seed):
    """Integrals of sampled capacities in both forms, and copies with one
    to three values moved, some late and some early in product order."""
    rng = random.Random(seed)
    out = []
    for m in ls.sample_capacities(L, arity, 3, seed):
        for form in ls.SugenoForm:
            base = sugeno_table(m, form)
            out.append((m, base))
            for moved in (1, 2, 3):
                values = list(base.values)
                for _ in range(moved):
                    values[rng.randrange(len(values))] = rng.randrange(L.size)
                out.append((m, FunctionTable(L, arity, values)))
    return out


def _moved_at_the_ends(L, arity, seed):
    """Integrals of sampled capacities in both forms with one value moved
    at the first, the second or the last position, so that the first
    disagreement of some form falls there."""
    out = []
    for m in ls.sample_capacities(L, arity, 2, seed):
        for form in ls.SugenoForm:
            base = sugeno_table(m, form).values
            for pos in {0, min(1, len(base) - 1), len(base) - 1}:
                for v in range(L.size):
                    if v != base[pos]:
                        values = list(base)
                        values[pos] = v
                        out.append((m, FunctionTable(L, arity, values)))
    return out


@pytest.mark.parametrize("spec,arity", [
    ("chain:3", 2), ("chain:4", 3), ("boolean:2", 3), ("chain:1", 2),
    ("chain:5", 1), ("prod:chain:2xchain:3", 2), ("builtin:N5", 2),
    ("builtin:M3", 2)])
def test_verify_pointwise_pinned_to_the_per_point_loop(spec, arity):
    """Same first witness and the same comparison count as the per-point
    loop, in both-form mode everywhere and in the sup-only mode used on
    non-distributive lattices."""
    L = ls.build_lattice(spec)
    both = (ls.SugenoForm.SUP_OF_MEETS, ls.SugenoForm.INF_OF_JOINS)
    witnesses = 0
    for seed in (0, 1):
        for m, f in (_perturbed_tables(L, arity, seed)
                     + _moved_at_the_ends(L, arity, seed)):
            for forms in (both, both[:1]):
                got = recognizer_module._verify_pointwise(f, m, forms)
                assert got == _per_point_verify(f, m, forms)
                witnesses += got[0] is not None
    assert witnesses or L.size == 1


def test_pentagon_sup_only_recheck_pinned(n5):
    """On N5 the override compares the sup form only: the inf-form
    integral is refused at the first point where the forms split."""
    m = next(m for m in enumerate_capacities(n5, 2)
             if sugeno_table(m).values
             != sugeno_table(m, ls.SugenoForm.INF_OF_JOINS).values)
    inf_table = sugeno_table(m, ls.SugenoForm.INF_OF_JOINS)
    res = recognize(inf_table, allow_nondistributive=True)
    witness, points = _per_point_verify(
        inf_table, recover_capacity(inf_table), (ls.SugenoForm.SUP_OF_MEETS,))
    assert not res.accepted
    assert (res.witness, res.pairs_checked) == (witness, points)
    assert res.verification_points == 0
