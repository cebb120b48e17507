"""Aggregation-function tables and the axioms that pin down the
Sugeno integral among them.

A function table stores every value of some f: L^n -> L densely, in
mixed-radix order with coordinate 0 as the most significant digit (the
same order itertools.product uses).  Ten checkable properties are
provided, from plain monotonicity up to homogeneity and the supremal /
infimal identities quantified over comonotone or g-comonotone pairs.

Seven two-axiom conjunctions, each claimed to pin down exactly the
Sugeno integrals, can be evaluated together by characterization_report;
the report records whether they in fact agree on the given table.

Pair counting convention: pairs_checked counts defining-identity
evaluations.  Homogeneity kinds run over (c, x) pairs (|L|·|L|^n full,
|L|·2^n Boolean); supremal/infimal kinds run over the related vector
pairs (x, y) with x lexicographically <= y, relying on the symmetry of
the relations.  Checks stop at the first failure, so a false verdict
reports fewer pairs.

The supremal/infimal kinds read their pairs from a PairPlan: per
relation and arity, the positions of x, y, x v y and x ^ y for every
related pair, built once per lattice.  A check then compares table
values by position, f(x v y) against f(x) v f(y), and decodes vectors
only for the witness.
"""

import itertools
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

from .capacity import Capacity, SugenoForm, _integral
# unused here, but perfbench/tracing.py wraps this name in this module
from .capacity import sugeno  # noqa: F401
from .errors import (
    ArityMismatch,
    EnumerationTooLarge,
    NotAggregation,
)
from .lattice import Lattice
from .relations import (
    RelationKind,
    _VerdictRows,
    _positions,
    compatibility_table,
    decode,
    encode,
    order_masks,
    related_positions,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .relations import relation_check  # noqa: F401

DOMAIN_LIMIT = 9  # exhaustive table enumeration caps |L|^n at this


class FunctionTable:
    """Dense table of an n-ary function on a lattice."""

    __slots__ = ("lattice", "arity", "values", "name")

    def __init__(self, lattice: Lattice, arity: int, values: Sequence[int],
                 name: str = "f"):
        if arity < 1:
            raise ArityMismatch("function arity must be at least 1")
        size = lattice.size ** arity
        values = tuple(values)
        if len(values) != size:
            raise ArityMismatch("need %d table entries, got %d"
                                % (size, len(values)))
        for v in values:
            lattice._check(v)
        self.lattice = lattice
        self.arity = arity
        self.values = values
        self.name = name

    def index(self, x: Sequence[int]) -> int:
        return encode(x, self.lattice.size)

    def decode(self, pos: int) -> tuple:
        return decode(pos, self.lattice.size, self.arity)

    def __call__(self, x: Sequence[int]) -> int:
        return self.values[self.index(x)]

    def domain(self) -> Iterator[tuple]:
        return itertools.product(range(self.lattice.size), repeat=self.arity)

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.lattice is other.lattice
                and self.arity == other.arity
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.lattice), self.arity, self.values))

    def __repr__(self):
        return "FunctionTable(%s, arity=%d, %s)" % (
            self.lattice.name, self.arity, self.name)


def table_from_function(lattice: Lattice, arity: int,
                        fn: Callable[..., int],
                        name: str = "f") -> FunctionTable:
    values = [fn(*x) for x in
              itertools.product(range(lattice.size), repeat=arity)]
    return FunctionTable(lattice, arity, values, name)


def sugeno_table(m: Capacity,
                 form: SugenoForm = SugenoForm.SUP_OF_MEETS,
                 name: str | None = None) -> FunctionTable:
    """Tabulate the integral of every vector against one capacity."""
    values = [_integral(m, x, form) for x in
              itertools.product(range(m.lattice.size), repeat=m.arity)]
    return FunctionTable(m.lattice, m.arity, values,
                         name or "su_" + m.name)


class AxiomKind(Enum):
    MONOTONE_BOUNDARY = "monotone_boundary"
    IDEMPOTENT = "idempotent"
    INF_HOMOGENEOUS = "inf_homogeneous"
    SUP_HOMOGENEOUS = "sup_homogeneous"
    BOOLEAN_INF_HOMOGENEOUS = "boolean_inf_homogeneous"
    BOOLEAN_SUP_HOMOGENEOUS = "boolean_sup_homogeneous"
    COMONOTONE_SUPREMAL = "comonotone_supremal"
    COMONOTONE_INFIMAL = "comonotone_infimal"
    G_COMONOTONE_SUPREMAL = "g_comonotone_supremal"
    G_COMONOTONE_INFIMAL = "g_comonotone_infimal"


@dataclass(frozen=True)
class AxiomCheck:
    kind: AxiomKind
    holds: bool
    witness: tuple | None
    pairs_checked: int


#: the seven conjunctions of axioms, each meant to single out the
#: Sugeno integrals among aggregation functions
CHARACTERIZATIONS = (
    (AxiomKind.INF_HOMOGENEOUS, AxiomKind.G_COMONOTONE_SUPREMAL),
    (AxiomKind.SUP_HOMOGENEOUS, AxiomKind.G_COMONOTONE_INFIMAL),
    (AxiomKind.INF_HOMOGENEOUS, AxiomKind.COMONOTONE_SUPREMAL),
    (AxiomKind.SUP_HOMOGENEOUS, AxiomKind.COMONOTONE_INFIMAL),
    (AxiomKind.COMONOTONE_SUPREMAL, AxiomKind.COMONOTONE_INFIMAL),
    (AxiomKind.G_COMONOTONE_SUPREMAL, AxiomKind.G_COMONOTONE_INFIMAL),
    (AxiomKind.BOOLEAN_SUP_HOMOGENEOUS, AxiomKind.BOOLEAN_INF_HOMOGENEOUS),
)


def characterization_label(pair: tuple) -> str:
    return "%s & %s" % (pair[0].value, pair[1].value)


class PairPlan(NamedTuple):
    """The related vector pairs (x, y), x lex <= y, of one relation at
    one arity, as four aligned columns of mixed-radix positions: x, y,
    x v y and x ^ y.  Rows run with x in product order and, for each
    x, y ascending from x itself."""

    xs: array
    ys: array
    joins: array
    meets: array


def _guard_pairs(lattice: Lattice, arity: int, limit: int):
    count = lattice.size ** arity
    if count * (count + 1) // 2 > limit:
        raise EnumerationTooLarge(
            "%d vector pairs exceed the limit of %d"
            % (count * (count + 1) // 2, limit))


def pair_plan(lattice: Lattice, arity: int, kind: RelationKind,
              limit: int = 10 ** 7) -> PairPlan:
    """The PairPlan of a pairwise kind, built once per (arity, kind).

    Related y are grown from letter-compatibility bitsets in time
    proportional to the output, with the positions of x v y and x ^ y
    carried digit by digit.  Plans are cached on the lattice because
    the supremal and infimal checks of every table, the census and the
    sampled lemma tables all walk the same relation on the same lattice.
    """
    _guard_pairs(lattice, arity, limit)
    key = (arity, kind)
    plan = lattice._pair_cache.get(key)
    if plan is None:
        table = compatibility_table(lattice, kind)
        plan = PairPlan(array("i"), array("i"), array("i"), array("i"))
        for a, x in enumerate(itertools.product(range(lattice.size),
                                                repeat=arity)):
            ys, joins, meets = related_positions(table, lattice, x, a)
            plan.xs.extend(array("i", (a,)) * len(ys))
            plan.ys.extend(ys)
            plan.joins.extend(joins)
            plan.meets.extend(meets)
        lattice._pair_cache[key] = plan
    return plan


def relation_pairs(lattice: Lattice, arity: int, kind: RelationKind,
                   limit: int = 10 ** 7) -> tuple:
    """All vector pairs (x, y), x lex <= y, standing in the relation.

    The diagonal pairs (x, x) are included, and each vector is one
    shared tuple however many pairs hold it.  The pairs of each x are
    read off its verdict row.
    """
    _guard_pairs(lattice, arity, limit)
    vectors = list(itertools.product(range(lattice.size), repeat=arity))
    rows = _VerdictRows(lattice, arity)
    return tuple((x, vectors[b]) for a, x in enumerate(vectors)
                 for b in _positions(rows(kind, x), a))


_SUPREMAL_RELATION = {
    AxiomKind.COMONOTONE_SUPREMAL: RelationKind.COMONOTONE,
    AxiomKind.COMONOTONE_INFIMAL: RelationKind.COMONOTONE,
    AxiomKind.G_COMONOTONE_SUPREMAL: RelationKind.G_COMONOTONE,
    AxiomKind.G_COMONOTONE_INFIMAL: RelationKind.G_COMONOTONE,
}


def axiom_check(f: FunctionTable, kind: AxiomKind) -> AxiomCheck:
    """Decide one axiom, with the lexicographically first witness."""
    lattice, n = f.lattice, f.arity
    k = lattice.size
    meet_t, join_t = lattice._meet, lattice._join
    values = f.values
    checked = 0

    if kind is AxiomKind.MONOTONE_BOUNDARY:
        bottom_vec = (lattice.bottom,) * n
        top_vec = (lattice.top,) * n
        checked += 1
        if f(bottom_vec) != lattice.bottom:
            return AxiomCheck(kind, False, ("boundary", bottom_vec), checked)
        checked += 1
        if f(top_vec) != lattice.top:
            return AxiomCheck(kind, False, ("boundary", top_vec), checked)
        # monotonicity along cover edges of the componentwise order; a
        # step from x_i to its cover c moves the position by the
        # difference times coordinate i's stride
        up = lattice._up
        covers = [lattice.upper_covers(a) for a in range(k)]
        strides = [k ** (n - 1 - i) for i in range(n)]
        for pos, x in enumerate(f.domain()):
            above = up[values[pos]]
            for i, (v, stride) in enumerate(zip(x, strides)):
                for c in covers[v]:
                    checked += 1
                    if not above >> values[pos + (c - v) * stride] & 1:
                        y = x[:i] + (c,) + x[i + 1:]
                        return AxiomCheck(kind, False, ("monotone", x, y),
                                          checked)
        return AxiomCheck(kind, True, None, checked)

    if kind is AxiomKind.IDEMPOTENT:
        for c in range(k):
            checked += 1
            if f((c,) * n) != c:
                return AxiomCheck(kind, False, (c,), checked)
        return AxiomCheck(kind, True, None, checked)

    if kind in (AxiomKind.INF_HOMOGENEOUS, AxiomKind.SUP_HOMOGENEOUS,
                AxiomKind.BOOLEAN_INF_HOMOGENEOUS,
                AxiomKind.BOOLEAN_SUP_HOMOGENEOUS):
        infside = kind in (AxiomKind.INF_HOMOGENEOUS,
                           AxiomKind.BOOLEAN_INF_HOMOGENEOUS)
        if kind in (AxiomKind.BOOLEAN_INF_HOMOGENEOUS,
                    AxiomKind.BOOLEAN_SUP_HOMOGENEOUS):
            # the abstract {0,1}^n cube: bottom enumerates before top
            domain = list(itertools.product((lattice.bottom, lattice.top),
                                            repeat=n))
        else:
            domain = list(f.domain())
        op = meet_t if infside else join_t
        for c in range(k):
            for x in domain:
                checked += 1
                scaled = tuple(op[c][v] for v in x)
                if values[encode(scaled, k)] != op[c][values[encode(x, k)]]:
                    return AxiomCheck(kind, False, (c, x), checked)
        return AxiomCheck(kind, True, None, checked)

    if kind in _SUPREMAL_RELATION:
        plan = pair_plan(lattice, n, _SUPREMAL_RELATION[kind])
        if kind in (AxiomKind.COMONOTONE_SUPREMAL,
                    AxiomKind.G_COMONOTONE_SUPREMAL):
            op, combined = join_t, plan.joins
        else:
            op, combined = meet_t, plan.meets
        for checked, a, b, c in zip(itertools.count(1), plan.xs, plan.ys,
                                    combined):
            if values[c] != op[values[a]][values[b]]:
                return AxiomCheck(kind, False, (f.decode(a), f.decode(b)),
                                  checked)
        return AxiomCheck(kind, True, None, len(plan.xs))

    raise ValueError("unknown axiom kind: %r" % (kind,))


@dataclass(frozen=True)
class CheckReport:
    """All ten axiom verdicts plus the seven conjunction verdicts."""

    table_name: str
    axioms: dict
    conditions: tuple  # ((kind, kind), bool) in CHARACTERIZATIONS order
    consistent: bool
    pairs_checked_total: int

    def condition_verdicts(self) -> tuple:
        return tuple(v for _, v in self.conditions)


def characterization_report(f: FunctionTable) -> CheckReport:
    """Evaluate the seven conjunctions and whether they agree.

    The table must be an aggregation function (monotone with the two
    boundary values); anything else raises NotAggregation with the
    offending point.
    """
    gate = axiom_check(f, AxiomKind.MONOTONE_BOUNDARY)
    if not gate.holds:
        raise NotAggregation("table %s is not an aggregation function"
                             % f.name, witness=gate.witness)
    axioms = {AxiomKind.MONOTONE_BOUNDARY: gate}
    for kind in AxiomKind:
        if kind is not AxiomKind.MONOTONE_BOUNDARY:
            axioms[kind] = axiom_check(f, kind)
    conditions = tuple(
        (pair, axioms[pair[0]].holds and axioms[pair[1]].holds)
        for pair in CHARACTERIZATIONS)
    verdicts = {v for _, v in conditions}
    total = sum(c.pairs_checked for c in axioms.values())
    return CheckReport(f.name, axioms, conditions,
                       consistent=len(verdicts) == 1,
                       pairs_checked_total=total)


def _monotone_fill(lattice: Lattice, arity: int) -> tuple:
    """How to fill an aggregation table entry by entry in product
    order: (pinned, choices).

    ``pinned`` maps the positions of the all-bottom and all-top points
    to bottom and top.  ``choices(values, pos)`` lists, in element
    order, the values at pos compatible with every earlier point: above
    the join of the earlier values below it and under the meet of the
    earlier values above it.  The earlier points below (above) a point
    are the AND, over coordinates, of the points whose coordinate lies
    below (above) its own, cut to the earlier positions.
    """
    points = list(itertools.product(range(lattice.size), repeat=arity))
    below, above = order_masks(lattice, arity)
    bounds = []
    for pos, x in enumerate(points):
        lo = hi = (1 << pos) - 1
        for i, v in enumerate(x):
            lo &= below[i][v]
            hi &= above[i][v]
        bounds.append((lo, hi))
    pinned = {points.index((lattice.bottom,) * arity): lattice.bottom,
              points.index((lattice.top,) * arity): lattice.top}
    up, join_t, meet_t = lattice._up, lattice._join, lattice._meet

    def choices(values: list, pos: int) -> list:
        lo, hi = bounds[pos]
        floor, ceil = lattice.bottom, lattice.top
        while lo:
            low = lo & -lo
            lo ^= low
            floor = join_t[floor][values[low.bit_length() - 1]]
        while hi:
            low = hi & -hi
            hi ^= low
            ceil = meet_t[ceil][values[low.bit_length() - 1]]
        return [v for v in range(lattice.size)
                if up[floor] >> v & 1 and up[v] >> ceil & 1]

    return pinned, choices


def enumerate_aggregations(lattice: Lattice, arity: int,
                           domain_limit: int = DOMAIN_LIMIT
                           ) -> Iterator[FunctionTable]:
    """Every aggregation function, in lexicographic table order.

    Assigns table entries in index order; a partial table is dropped as
    soon as it disagrees with monotonicity against any already-assigned
    comparable point, which keeps the search linear in the number of
    surviving prefixes.  Restricted to tiny domains (|L|^n entries at
    most ``domain_limit``) since the output count grows violently.
    """
    count = lattice.size ** arity
    if count > domain_limit:
        raise EnumerationTooLarge(
            "domain of %d points exceeds the exhaustive cap of %d"
            % (count, domain_limit))
    pinned, choices = _monotone_fill(lattice, arity)
    values = [lattice.bottom] * count

    def extend(pos: int) -> Iterator[FunctionTable]:
        if pos == count:
            yield FunctionTable(lattice, arity, tuple(values))
            return
        for v in ((pinned[pos],) if pos in pinned
                  else choices(values, pos)):
            values[pos] = v
            yield from extend(pos + 1)
        values[pos] = lattice.bottom

    return extend(0)


def sample_aggregations(lattice: Lattice, arity: int, count: int,
                        seed: int) -> list:
    """Reproducible random aggregation tables.

    Entries are assigned in index order, each drawn uniformly from the
    elements compatible with every already-assigned comparable point;
    the all-bottom and all-top points take bottom and top without a
    draw.  The feasible set is never empty: pairwise-consistent
    assignments always leave the interval between the join of the
    floors and the meet of the ceilings inhabited.
    """
    rng = random.Random(seed)
    total = lattice.size ** arity
    pinned, choices = _monotone_fill(lattice, arity)
    out = []
    for sample_idx in range(count):
        values = [lattice.bottom] * total
        for pos in range(total):
            if pos in pinned:
                values[pos] = pinned[pos]
            else:
                values[pos] = rng.choice(choices(values, pos))
        out.append(FunctionTable(lattice, arity, tuple(values),
                                 name="sample%d" % sample_idx))
    return out
