"""Decide whether a function table is a discrete Sugeno integral.

Every aggregation function determines one candidate capacity: its
values at the characteristic vectors (top on a subset, bottom off it).
The table is a Sugeno integral exactly when it equals the integral of
that candidate, which can be decided two ways:

* boolean_homogeneity: test the two homogeneity identities restricted
  to {bottom, top}^n inputs (2 * |L| * 2^n identity evaluations), then
  recover the capacity;
* direct_comparison: recover the capacity and compare tables pointwise.

Whichever method decides, an accepting verdict is only returned after
re-checking f(x) == integral(x) in both forms at every point.  That
re-check is deliberately redundant for the boolean method on
distributive lattices -- it is the cheap regression test of the claim
that Boolean homogeneity suffices -- and it is never skipped.

Non-distributive lattices are refused by default, since the two
integral forms can split there; an explicit override switches to
direct comparison against the sup-of-meets form only.
"""

from dataclasses import dataclass
from enum import Enum

from .axioms import AxiomKind, FunctionTable, axiom_check
from .capacity import (
    Capacity,
    SugenoForm,
    _integral,
    characteristic_vector,
    validate_capacity,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .capacity import sugeno  # noqa: F401
from .errors import NotAggregation, NotDistributive
from .lattice import is_distributive


class RecognitionMethod(Enum):
    BOOLEAN_HOMOGENEITY = "boolean"
    DIRECT_COMPARISON = "direct"


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of recognize().

    ``witness`` is a tagged tuple: ("boolean_inf", c, x) or
    ("boolean_sup", c, x) for a homogeneity failure over the Boolean
    cube, or ("disagreement", x, got, expected) for a point where the
    table differs from the recovered capacity's integral.

    ``pairs_checked`` counts the identity evaluations of the deciding
    method itself; ``verification_points`` counts the per-point,
    per-form comparisons of the final soundness re-check (zero when the
    verdict is negative before that stage).
    """

    method: RecognitionMethod
    accepted: bool
    capacity: Capacity | None
    witness: tuple | None
    pairs_checked: int
    verification_points: int


def recover_capacity(f: FunctionTable) -> Capacity:
    """The only capacity f can be an integral of: its values at the
    characteristic vectors.  Monotonicity and the boundary values of f
    make the result a valid capacity."""
    _gate(f)
    return _read_capacity(f)


def _gate(f: FunctionTable) -> None:
    gate = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
    if not gate.holds:
        raise NotAggregation("table %s is not an aggregation function"
                             % f.name, witness=gate.witness)


def _read_capacity(f: FunctionTable) -> Capacity:
    """f's values at the characteristic vectors; f must have passed the
    aggregation gate."""
    lattice, n = f.lattice, f.arity
    values = [f(characteristic_vector(lattice, n, mask))
              for mask in range(1 << n)]
    return validate_capacity(lattice, n, values, name="rec_" + f.name)


def _verify_pointwise(f: FunctionTable, m: Capacity,
                      forms: tuple) -> tuple:
    """Compare f with the integral of m at every point, every form.

    Returns (first disagreement or None, comparisons made).
    """
    points = 0
    for x, fx in zip(f.domain(), f.values):
        for form in forms:
            points += 1
            expected = _integral(m, x, form)
            if fx != expected:
                return ("disagreement", x, fx, expected), points
    return None, points


def recognize(f: FunctionTable,
              method: RecognitionMethod = RecognitionMethod.BOOLEAN_HOMOGENEITY,
              allow_nondistributive: bool = False) -> RecognitionResult:
    """Full recognition with witness on refusal.

    Boolean-inf failures are searched before Boolean-sup failures, each
    side in lexicographic (c, x) order, so refusal witnesses are
    deterministic.
    """
    _gate(f)

    forms = (SugenoForm.SUP_OF_MEETS, SugenoForm.INF_OF_JOINS)
    if not is_distributive(f.lattice):
        if not allow_nondistributive:
            raise NotDistributive(
                "lattice %s is not distributive; recognition is only "
                "defined on distributive lattices (pass "
                "allow_nondistributive to compare against the "
                "sup-of-meets form anyway)" % f.lattice.name,
                witness=f.lattice._distributive_witness)
        method = RecognitionMethod.DIRECT_COMPARISON
        forms = (SugenoForm.SUP_OF_MEETS,)

    if method is RecognitionMethod.BOOLEAN_HOMOGENEITY:
        checked = 0
        for kind, tag in ((AxiomKind.BOOLEAN_INF_HOMOGENEOUS, "boolean_inf"),
                          (AxiomKind.BOOLEAN_SUP_HOMOGENEOUS, "boolean_sup")):
            res = axiom_check(f, kind)
            checked += res.pairs_checked
            if not res.holds:
                return RecognitionResult(method, False, None,
                                         (tag,) + res.witness, checked, 0)
        m = _read_capacity(f)
        witness, points = _verify_pointwise(f, m, forms)
        if witness is not None:
            return RecognitionResult(method, False, None, witness,
                                     checked, points)
        return RecognitionResult(method, True, m, None, checked, points)

    if method is RecognitionMethod.DIRECT_COMPARISON:
        m = _read_capacity(f)
        witness, points = _verify_pointwise(f, m, forms)
        if witness is not None:
            return RecognitionResult(method, False, None, witness,
                                     points, 0)
        return RecognitionResult(method, True, m, None, points, points)

    raise ValueError("unknown method: %r" % (method,))
