import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import lattice_sugeno as ls
from lattice_sugeno.cli import build_parser
from lattice_sugeno import (
    ArityMismatch,
    BoundaryViolation,
    Capacity,
    EnumerationTooLarge,
    InvalidCapacity,
    MonotonicityViolation,
    SugenoForm,
    characteristic_vector,
    enumerate_capacities,
    sample_capacities,
    sugeno,
    sugeno_table,
    validate_capacity,
)
from lattice_sugeno.capacity import _integral_table

from _oracles import (
    ref_boolean,
    ref_capacities,
    ref_chain,
    ref_m3,
    ref_n5,
    ref_product,
    ref_sugeno_inf,
    ref_sugeno_sup,
)
from test_axioms import _pinned_lattice
from test_relations import _closure_lattice


def test_form_tokens():
    parser = build_parser()
    argv = ["sugeno", "--lattice", "chain:2", "--capacity", "m.cap",
            "--x", "(0)", "--form"]
    assert (SugenoForm(parser.parse_args(argv + ["sup"]).form)
            is SugenoForm.SUP_OF_MEETS)
    assert (SugenoForm(parser.parse_args(argv + ["inf"]).form)
            is SugenoForm.INF_OF_JOINS)
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["avg"])


# -- validation ------------------------------------------------------------


def test_symmetric_capacity_is_valid(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2))
    assert m.value(0b01) == 1
    assert m.value(0b11) == 2


def test_boundary_violation_at_empty_set(chain3):
    with pytest.raises(BoundaryViolation) as info:
        validate_capacity(chain3, 2, (1, 1, 1, 2))
    assert "boundary at {}" in str(info.value)
    assert ("boundary", 0) in info.value.violations


def test_both_violations_reported_boundary_first(bool2):
    # values ({}->0, {1}->1, {2}->q, {1,2}->q): the full set misses top
    # and {1} exceeds {1,2}
    with pytest.raises(BoundaryViolation) as info:
        validate_capacity(bool2, 2, (0, 3, 2, 2))
    msg = str(info.value)
    assert msg == ("invalid capacity: boundary at {1,2}; "
                   "monotonicity at {1} < {1,2}")
    assert info.value.violations == [("boundary", 3), ("monotonicity", 1, 3)]


def test_pure_monotonicity_violation(chain3):
    # arity 3 leaves middle-to-middle cover pairs free to break
    values = (0, 2, 0, 1, 0, 2, 2, 2)
    with pytest.raises(MonotonicityViolation) as info:
        validate_capacity(chain3, 3, values)
    assert info.value.violations == [("monotonicity", 0b001, 0b011)]
    assert "monotonicity at {1} < {1,2}" in str(info.value)


def test_monotonicity_error_is_invalid_capacity(chain3):
    with pytest.raises(InvalidCapacity):
        validate_capacity(chain3, 3, (0, 2, 0, 1, 0, 2, 2, 2))


def test_wrong_table_size(chain3):
    with pytest.raises(ArityMismatch):
        validate_capacity(chain3, 2, (0, 1, 2))
    with pytest.raises(ArityMismatch):
        validate_capacity(chain3, 0, (0,))


def test_capacity_equality_and_mask_range(chain3):
    m1 = validate_capacity(chain3, 2, (0, 1, 1, 2), name="one")
    m2 = validate_capacity(chain3, 2, (0, 1, 1, 2), name="two")
    assert m1 == m2  # names do not take part in equality
    assert hash(m1) == hash(m2)
    with pytest.raises(ArityMismatch):
        m1.value(4)


# -- the integral ------------------------------------------------------------


def test_max_capacity_collapses_to_join(chain4):
    m = Capacity(chain4, 2, (0, 3, 3, 3), name="max")
    for x in itertools.product(range(4), repeat=2):
        for form in SugenoForm:
            assert sugeno(m, x, form) == chain4.join(x[0], x[1])


def test_min_capacity_collapses_to_meet(chain4):
    m = Capacity(chain4, 2, (0, 0, 0, 3), name="min")
    for x in itertools.product(range(4), repeat=2):
        for form in SugenoForm:
            assert sugeno(m, x, form) == chain4.meet(x[0], x[1])


def test_square_example_both_forms_bottom(bool2):
    m = validate_capacity(bool2, 2, (0, 1, 2, 3))
    q, p = bool2.index("q"), bool2.index("p")
    assert sugeno(m, (q, p), SugenoForm.SUP_OF_MEETS) == 0
    assert sugeno(m, (q, p), SugenoForm.INF_OF_JOINS) == 0


def test_matches_oracle_on_every_capacity(chain3, bool2):
    refs = {"chain3": ref_chain(3), "boolean2": ref_boolean(2)}
    for L, arity in ((chain3, 2), (bool2, 2), (chain3, 3)):
        ref = refs[L.name]
        for m in enumerate_capacities(L, arity):
            for x in itertools.product(range(L.size), repeat=arity):
                assert (sugeno(m, x, SugenoForm.SUP_OF_MEETS)
                        == ref_sugeno_sup(ref, m.values, x))
                assert (sugeno(m, x, SugenoForm.INF_OF_JOINS)
                        == ref_sugeno_inf(ref, m.values, x))


def test_forms_agree_on_distributive(chain4, prod23):
    for L, arity in ((chain4, 2), (prod23, 2)):
        for m in enumerate_capacities(L, arity):
            for x in itertools.product(range(L.size), repeat=arity):
                assert (sugeno(m, x, SugenoForm.SUP_OF_MEETS)
                        == sugeno(m, x, SugenoForm.INF_OF_JOINS))


def test_boundary_recovery(chain3, bool2):
    for L, arity in ((chain3, 2), (bool2, 2), (chain3, 3)):
        for m in enumerate_capacities(L, arity):
            for mask in range(1 << arity):
                x = characteristic_vector(L, arity, mask)
                assert sugeno(m, x, SugenoForm.SUP_OF_MEETS) == m.values[mask]


def test_integral_is_monotone_with_boundaries(chain3):
    for m in enumerate_capacities(chain3, 2):
        table = {x: sugeno(m, x) for x in
                 itertools.product(range(3), repeat=2)}
        assert table[(0, 0)] == 0
        assert table[(2, 2)] == 2
        for x, fx in table.items():
            for y, fy in table.items():
                if all(a <= b for a, b in zip(x, y)):
                    assert fx <= fy


def test_pentagon_forms_disagree(n5):
    """On the pentagon the two integral forms split for 22 of the
    9 * 25 capacity/vector combinations; the first split in enumeration
    order has m({1})=0, m({2})=a at x=(c,b), giving a vs b."""
    a, b, c = n5.index("a"), n5.index("b"), n5.index("c")
    splits = []
    for m in enumerate_capacities(n5, 2):
        for x in itertools.product(range(5), repeat=2):
            sup = sugeno(m, x, SugenoForm.SUP_OF_MEETS)
            inf = sugeno(m, x, SugenoForm.INF_OF_JOINS)
            if sup != inf:
                splits.append((m.values, x, sup, inf))
    assert len(splits) == 22
    assert splits[0] == ((0, 0, 1, 4), (c, b), a, b)


def test_diamond_forms_disagree(m3):
    c = m3.index("c")
    b = m3.index("b")
    splits = []
    for m in enumerate_capacities(m3, 2):
        for x in itertools.product(range(5), repeat=2):
            sup = sugeno(m, x, SugenoForm.SUP_OF_MEETS)
            inf = sugeno(m, x, SugenoForm.INF_OF_JOINS)
            if sup != inf:
                splits.append((m.values, x, sup, inf))
    assert len(splits) == 54
    assert splits[0] == ((0, 0, 1, 4), (b, c), 0, c)


def test_sup_form_never_exceeds_inf_form(n5, m3):
    # even where the forms split, sup-of-meets stays below inf-of-joins
    for L in (n5, m3):
        for m in enumerate_capacities(L, 2):
            for x in itertools.product(range(L.size), repeat=2):
                assert L.leq(sugeno(m, x, SugenoForm.SUP_OF_MEETS),
                             sugeno(m, x, SugenoForm.INF_OF_JOINS))


def test_enumeration_refuses_arity_zero(chain3):
    with pytest.raises(ArityMismatch, match="^capacity arity must be at "
                       "least 1$"):
        enumerate_capacities(chain3, 0)


def test_arity_mismatch_on_vector(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2))
    with pytest.raises(ArityMismatch):
        sugeno(m, (0, 1, 2))


# -- enumeration ---------------------------------------------------------


def test_capacity_counts():
    cases = [
        (ls.chain(2), 1, 1),
        (ls.chain(2), 2, 4),
        (ls.chain(3), 2, 9),
        (ls.chain(3), 3, 129),
        (ls.chain(4), 2, 16),
        (ls.boolean_lattice(2), 2, 16),
        (ls.boolean_lattice(2), 3, 324),
        (ls.product([ls.chain(2), ls.chain(3)]), 2, 36),
    ]
    for L, arity, expected in cases:
        assert sum(1 for _ in enumerate_capacities(L, arity)) == expected


def test_counts_match_brute_force_oracle():
    cases = [
        (ls.chain(3), ref_chain(3), 2),
        (ls.chain(4), ref_chain(4), 2),
        (ls.boolean_lattice(2), ref_boolean(2), 2),
        (ls.n5(), ref_n5(), 2),
        (ls.m3(), ref_m3(), 2),
        (ls.chain(3), ref_chain(3), 3),
    ]
    for L, ref, arity in cases:
        ours = [m.values for m in enumerate_capacities(L, arity)]
        theirs = ref_capacities(ref, arity)
        assert sorted(ours) == sorted(theirs)


def test_enumeration_is_lexicographic_and_duplicate_free(chain3):
    values = [m.values for m in enumerate_capacities(chain3, 2)]
    assert values == sorted(values)
    assert len(values) == len(set(values))
    assert values[0] == (0, 0, 0, 2)
    assert values[-1] == (0, 2, 2, 2)


def test_every_enumerated_capacity_validates(prod23):
    for m in enumerate_capacities(prod23, 2):
        validate_capacity(prod23, 2, m.values)


def test_enumeration_guard():
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_capacities(ls.chain(6), 3, limit=10 ** 4))


def test_enumeration_guard_boundary_is_inclusive(chain3):
    # 3^2 = 9 candidate tables: a limit of exactly 9 must pass
    assert sum(1 for _ in enumerate_capacities(chain3, 2, limit=9)) == 9
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_capacities(chain3, 2, limit=8))


# -- sampling ------------------------------------------------------------


def test_sampling_is_deterministic_per_seed(chain4):
    first = sample_capacities(chain4, 3, 20, seed=7)
    second = sample_capacities(chain4, 3, 20, seed=7)
    assert [m.values for m in first] == [m.values for m in second]
    other = sample_capacities(chain4, 3, 20, seed=8)
    assert [m.values for m in first] != [m.values for m in other]


def test_samples_are_valid_capacities(n5, prod23):
    for L in (n5, prod23):
        for m in sample_capacities(L, 3, 25, seed=0):
            validate_capacity(L, 3, m.values)


def test_sample_names_are_sequential(chain3):
    names = [m.name for m in sample_capacities(chain3, 2, 3, seed=1)]
    assert names == ["sample0", "sample1", "sample2"]


def _lower_cover_candidates(L, values, mask, arity):
    """The elements, in order, above the join of the values at the
    lower covers of mask."""
    floor = L.bottom
    for i in range(arity):
        if mask >> i & 1:
            floor = L.join(floor, values[mask & ~(1 << i)])
    return [v for v in range(L.size) if L.leq(floor, v)]


def _cover_sample(L, arity, count, seed):
    """The capacity sampler as it was with its own candidate loop."""
    rng = random.Random(seed)
    size = 1 << arity
    out = []
    for _ in range(count):
        values = [L.bottom] * size
        values[size - 1] = L.top
        for mask in range(1, size - 1):
            values[mask] = rng.choice(
                _lower_cover_candidates(L, values, mask, arity))
        out.append(tuple(values))
    return out


def _cover_enumerate(L, arity):
    """The capacity search as it was with its own candidate loop."""
    size = 1 << arity
    values = [L.bottom] * size
    values[size - 1] = L.top
    out = []

    def extend(mask):
        if mask == size - 1:
            out.append(tuple(values))
            return
        for v in _lower_cover_candidates(L, values, mask, arity):
            values[mask] = v
            extend(mask + 1)

    extend(1)
    return out


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("spec", [
    "chain:4", "boolean:2", "builtin:N5", "builtin:M3",
    "prod:chain:2xchain:3", "unsorted-N5"])
def test_capacity_fills_pinned_to_the_cover_loop(spec, arity):
    # sampled capacities reach the lemmas suite's output, so their exact
    # values, not only their validity, are part of the contract
    L = _pinned_lattice(spec)
    for seed in (0, 9):
        ours = [m.values for m in sample_capacities(L, arity, 8, seed)]
        assert ours == _cover_sample(L, arity, 8, seed)
    ours = [m.values for m in enumerate_capacities(L, arity)]
    assert ours == _cover_enumerate(L, arity)


# -- property probes -------------------------------------------------------

_PLATS = [ls.chain(5), ls.boolean_lattice(3),
          ls.product([ls.chain(2), ls.chain(3)])]
_PREFS = [ref_chain(5), ref_boolean(3),
          ref_product([ref_chain(2), ref_chain(3)])]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_PLATS) - 1), st.integers(2, 3),
       st.integers(0, 10 ** 6), st.data())
def test_sampled_integrals_match_oracle(which, arity, seed, data):
    L = _PLATS[which]
    ref = _PREFS[which]
    m = sample_capacities(L, arity, 1, seed)[0]
    x = tuple(data.draw(st.integers(0, L.size - 1)) for _ in range(arity))
    assert sugeno(m, x, SugenoForm.SUP_OF_MEETS) == ref_sugeno_sup(
        ref, m.values, x)
    assert sugeno(m, x, SugenoForm.INF_OF_JOINS) == ref_sugeno_inf(
        ref, m.values, x)


# -- the tabulation kernel ---------------------------------------------------

_TABLE_ZOO = {
    "chain1": (ls.chain(1), ref_chain(1)),
    "chain3": (ls.chain(3), ref_chain(3)),
    "chain4": (ls.chain(4), ref_chain(4)),
    "boolean2": (ls.boolean_lattice(2), ref_boolean(2)),
    "boolean3": (ls.boolean_lattice(3), ref_boolean(3)),
    "prod23": (ls.product([ls.chain(2), ls.chain(3)]),
               ref_product([ref_chain(2), ref_chain(3)])),
    "N5": (ls.n5(), ref_n5()),
    "M3": (ls.m3(), ref_m3()),
}

_REF_FORMS = {SugenoForm.SUP_OF_MEETS: ref_sugeno_sup,
              SugenoForm.INF_OF_JOINS: ref_sugeno_inf}


def _ref_table(ref, m, form):
    return tuple(_REF_FORMS[form](ref, m.values, x) for x in
                 itertools.product(range(ref.size), repeat=m.arity))


def _check_against_oracle(ref, m, form):
    """The table and the single-point evaluation at every point both
    equal the literal double loop."""
    expected = _ref_table(ref, m, form)
    assert sugeno_table(m, form).values == expected
    assert tuple(sugeno(m, x, form) for x in itertools.product(
        range(ref.size), repeat=m.arity)) == expected


@pytest.mark.parametrize("form", list(SugenoForm), ids=lambda f: f.value)
@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _TABLE_ZOO for arity in (1, 2, 3)
    if _TABLE_ZOO[name][0].size ** arity <= 125])
def test_sugeno_table_matches_oracle(name, arity, form):
    """Each form's table and single-point value equal the literal double
    loop at every point, on the non-distributive lattices too, for the
    first capacities in enumeration order and a few sampled ones."""
    L, ref = _TABLE_ZOO[name]
    capacities = (list(itertools.islice(enumerate_capacities(L, arity), 20))
                  + sample_capacities(L, arity, 3, seed=arity))
    for m in capacities:
        _check_against_oracle(ref, m, form)


@pytest.mark.parametrize("form", list(SugenoForm), ids=lambda f: f.value)
@pytest.mark.parametrize("name,arity", [
    (name, arity) for name in _TABLE_ZOO for arity in (1, 2, 3)
    if _TABLE_ZOO[name][0].size ** arity <= 125])
def test_integral_table_stop_gives_the_prefix(name, arity, form):
    """With stop, the kernel returns exactly the first stop values of the
    full table, for every stop from 0 to k^n."""
    L, _ = _TABLE_ZOO[name]
    for m in sample_capacities(L, arity, 2, seed=arity):
        full = _integral_table(m, form)
        for stop in range(len(full) + 1):
            assert _integral_table(m, form, stop=stop) == full[:stop]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7)), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_sugeno_table_matches_oracle_on_random_lattices(family, arity, seed):
    L, ref = _closure_lattice(family)
    if L.size ** arity > 216:
        arity = 2
    m = sample_capacities(L, arity, 1, seed)[0]
    for form in SugenoForm:
        _check_against_oracle(ref, m, form)
