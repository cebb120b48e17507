"""Decide whether a function table is a discrete Sugeno integral.

Every aggregation function determines one candidate capacity: its
values at the characteristic vectors (top on a subset, bottom off it).
The table is a Sugeno integral exactly when it equals the integral of
that candidate, which can be decided two ways:

* boolean_homogeneity: test the two homogeneity identities restricted
  to {bottom, top}^n inputs (2 * |L| * 2^n identity evaluations);
* direct_comparison: compare the table with the candidate's integral
  pointwise.

Whichever method decides, an accepting verdict is only returned after
re-checking f(x) == integral(x) in both forms at every point.  That
re-check is deliberately redundant for the boolean method on
distributive lattices -- it is the cheap regression test of the claim
that Boolean homogeneity suffices -- and it is never skipped.

recognize reads the candidate before it knows that f is an aggregation
function, and runs the aggregation gate (monotonicity and the boundary
values) only where the gate could change the outcome.  An acceptance
skips it: f equals the integral of a valid capacity at every point,
and every such integral passes the gate.  A rejection, an invalid
candidate or a refused lattice runs it before it is reported, so a
table that is no aggregation function still raises NotAggregation in
place of any other outcome.  An invalid candidate always fails the gate, since 1_I <= 1_J
whenever I is a subset of J.

Non-distributive lattices are refused by default, since the two
integral forms can split there; an explicit override switches to
direct comparison against the sup-of-meets form only.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from operator import ne

from .axioms import AxiomKind, FunctionTable, axiom_check
from .capacity import (
    Capacity,
    SugenoForm,
    _integral_table,
    characteristic_vector,
    validate_capacity,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .capacity import sugeno  # noqa: F401
from .errors import InvalidCapacity, NotAggregation, NotDistributive
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
    make the result a valid capacity, so f must pass the aggregation
    gate first; anything else raises NotAggregation."""
    gate = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
    if not gate.holds:
        raise NotAggregation("table %s is not an aggregation function"
                             % f.name, witness=gate.witness)
    return _read_capacity(f)


def _read_capacity(f: FunctionTable) -> Capacity:
    """f's values at the characteristic vectors, validated as a capacity
    named after f; raises InvalidCapacity when they are not one."""
    lattice, n = f.lattice, f.arity
    values = [f(characteristic_vector(lattice, n, mask))
              for mask in range(1 << n)]
    return validate_capacity(lattice, n, values, name="rec_" + f.name)


def _verify_pointwise(f: FunctionTable, m: Capacity,
                      forms: tuple) -> tuple:
    """Compare f with the integral of m at every point, every form.

    Each form is tabulated from its own formula.  The comparisons run
    point by point in product order and form by form at each point, so
    the result is the first disagreement in that order (or None) and
    the number of comparisons made up to it.
    """
    values = f.values
    first = None  # (position, form rank, expected value)
    for rank, form in enumerate(forms):
        # a later form matters only before the first disagreement so far
        expected = _integral_table(m, form,
                                   stop=None if first is None else first[0])
        pos = next(compress(count(), map(ne, values, expected)), None)
        if pos is not None:
            first = (pos, rank, expected[pos])
    if first is None:
        return None, len(values) * len(forms)
    pos, rank, expected = first
    return (("disagreement", f.decode(pos), values[pos], expected),
            pos * len(forms) + rank + 1)


def recognize(f: FunctionTable,
              method: RecognitionMethod = RecognitionMethod.BOOLEAN_HOMOGENEITY,
              allow_nondistributive: bool = False) -> RecognitionResult:
    """Full recognition with witness on refusal.

    Boolean-inf failures are searched before Boolean-sup failures, each
    side in lexicographic (c, x) order, so refusal witnesses are
    deterministic.  Every outcome but an acceptance runs the aggregation
    gate before it is reported, through recover_capacity, and raises
    NotAggregation in its place when f fails it.
    """
    try:
        result = _decide(f, method, allow_nondistributive)
    except (InvalidCapacity, NotDistributive):
        # an invalid candidate always fails the gate; a refused lattice
        # still owes it, so NotAggregation comes first either way
        recover_capacity(f)
        raise
    if not result.accepted:
        recover_capacity(f)
    return result


def _decide(f: FunctionTable, method: RecognitionMethod,
            allow_nondistributive: bool) -> RecognitionResult:
    """recognize without the gate: reads the candidate, refuses a
    non-distributive lattice without the override, and returns the
    deciding method's verdict after the two-form re-check."""
    m = _read_capacity(f)
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
    elif method is not RecognitionMethod.DIRECT_COMPARISON:
        raise ValueError("unknown method: %r" % (method,))

    witness, points = _verify_pointwise(f, m, forms)
    accepted = witness is None
    if method is RecognitionMethod.DIRECT_COMPARISON:
        # the comparisons are the method's own identities; only an
        # acceptance counts them again as the re-check
        checked, points = points, points if accepted else 0
    return RecognitionResult(method, accepted, m if accepted else None,
                             witness, checked, points)
