"""Aggregation-function tables and the axioms that pin down the
Sugeno integral among them.

A function table stores every value of some f: L^n -> L densely, in
mixed-radix order with coordinate 0 as the most significant digit (the
same order itertools.product uses).  Ten checkable properties are
provided, from plain monotonicity up to homogeneity and the supremal /
infimal identities quantified over comonotone or g-comonotone pairs.

Aggregation tables are enumerated and sampled by capacity's monotone
fill, bounded by the componentwise order of the domain: each point by
the maximal earlier points below it and the minimal earlier points
above it.

Seven two-axiom conjunctions, each claimed to pin down exactly the
Sugeno integrals, can be evaluated together by characterization_report;
the report records whether they in fact agree on the given table.

Pair counting convention: pairs_checked counts defining-identity
evaluations.  Homogeneity kinds run over (c, x) pairs (|L|·|L|^n full,
|L|·2^n Boolean); supremal/infimal kinds run over the related vector
pairs (x, y) with x lexicographically <= y, relying on the symmetry of
the relations, and on a monotone table count those with x <= y
coordinatewise without comparing them.  Checks stop at the first
failure, so a false verdict reports fewer pairs: those of the anchors
before the witness's x, plus the y related to x from x through the
witness's y, counted by bisection in the positions related to x from x
on, which the plan keeps per anchor at which a check failed.

The supremal/infimal kinds read their pairs from a PairPlan: per
relation, arity and whether the table is monotone, anchor by anchor,
the count of pairs before the anchor and the positions of y, x v y and
x ^ y, kept on the lattice.  The plan for monotone tables holds only
the pairs with x not <= y; the other holds every pair.  A plan is
built only as far as the checks read it: a check compares the anchors
built so far, then pulls one more anchor at a time while every pair
holds, so a check that fails stops at the anchor of its witness and
leaves the rest unbuilt for the next one.  A check compares table
values by position, f(x v y) against f(x) v f(y), and decodes vectors
only for the witness.  The homogeneity kinds compare, for each c, the
row of f(c ^ x) (f(c v x)) against the row of c ^ f(x) (c v f(x)) over
every point x as two byte strings: the first read from the table by a
getter of the positions of c ^ x, the second translated from the row
of f(x) by the byte map v -> c ^ v.  The points, the getters and the
maps are kept per (arity, kind) on the lattice, built by the first
check of that kind; only a row that differs is scanned for its first
point.
"""

import itertools
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import add, itemgetter, ne
from typing import Callable, Iterator, Sequence

from .capacity import (
    Capacity,
    SugenoForm,
    _MonotoneFill,
    _Table,
    _integral_table,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .capacity import sugeno  # noqa: F401
from .errors import (
    ArityMismatch,
    EnumerationTooLarge,
    NotAggregation,
    guard_size,
)
from .lattice import Lattice
from .relations import (
    RelationKind,
    _order_rows,
    _related,
    decode,
    encode,
    related_positions,
    strides,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .relations import relation_check  # noqa: F401

DOMAIN_LIMIT = 9  # exhaustive table enumeration caps |L|^n at this


class FunctionTable(_Table):
    """Dense table of an n-ary function on a lattice."""

    __slots__ = ("_monotone",)  # True or False once known, else None

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
        self._monotone = None

    @classmethod
    def _trusted(cls, lattice: Lattice, arity: int, values: Sequence[int],
                 name: str = "f", monotone=None) -> "FunctionTable":
        """A table of k^n values that are already known to be element
        indices, such as the package's own integrals and fills or a
        parsed file's names: built without re-checking each value."""
        table = cls.__new__(cls)
        table.lattice = lattice
        table.arity = arity
        table.values = tuple(values)
        table.name = name
        table._monotone = monotone
        return table

    def index(self, x: Sequence[int]) -> int:
        return encode(x, self.lattice.size)

    def decode(self, pos: int) -> tuple:
        return decode(pos, self.lattice.size, self.arity)

    def __call__(self, x: Sequence[int]) -> int:
        return self.values[self.index(x)]

    def domain(self) -> Iterator[tuple]:
        return itertools.product(range(self.lattice.size), repeat=self.arity)

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
                 form: SugenoForm = SugenoForm.SUP_OF_MEETS) -> FunctionTable:
    """Tabulate the integral of every vector against one capacity."""
    return FunctionTable._trusted(m.lattice, m.arity, _integral_table(m, form),
                                  "su_" + m.name, monotone=True)


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


#: homogeneity kind -> (inf side?, only x in the {bottom, top}^n cube?)
_HOMOGENEITY = {
    AxiomKind.INF_HOMOGENEOUS: (True, False),
    AxiomKind.SUP_HOMOGENEOUS: (False, False),
    AxiomKind.BOOLEAN_INF_HOMOGENEOUS: (True, True),
    AxiomKind.BOOLEAN_SUP_HOMOGENEOUS: (False, True),
}


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


class PairPlan:
    """The related vector pairs (x, y), x lex <= y, of one pairwise
    relation at one arity, as a list of anchors in product order, each
    ``(a, start, ys, joins, meets)``: the position a of x, the count of
    related pairs of the earlier anchors, and three aligned arrays, the
    positions of y ascending, of x v y and of x ^ y.  The plan for
    monotone tables holds only the pairs with x not <= y, the ones such
    a table can fail, and no plan holds an anchor without a pair.
    ``walk`` yields the anchors not yet built
    (``relations.related_positions``), and is None once all are;
    ``total`` counts the pairs walked, held or not.  ``regions`` maps
    the position a of an anchor at which a check failed to an array of
    the positions related to x from x on, every pair and not only the
    held ones, which ranks that check's witness and every later one
    failing there."""

    __slots__ = ("anchors", "total", "walk", "regions")

    def __init__(self, walk: Iterator[tuple]):
        self.anchors = []
        self.total = 0
        self.walk = walk
        self.regions = {}


def _is_monotone(f: FunctionTable) -> bool:
    """Whether f is monotone: its flag, set when it was built monotone,
    or else decided once along the cover edges of the domain."""
    if f._monotone is None:
        f._monotone = _monotone_along_covers(
            f.lattice, f.arity, f.values, list(f.lattice.cover_pairs()))
    return f._monotone


def _kept_plan(f: FunctionTable, kind: RelationKind) -> tuple:
    """(key, plan): the plan of kind kept on f's lattice under key,
    (f's arity, kind, whether f is monotone), with the anchors built so
    far; more than 10^7 vector pairs are refused before f's monotonicity
    is decided or the plan exists.  Plans are kept per lattice because
    the supremal and infimal checks of every table, the census and the
    sampled lemma tables all walk the same relation on the same
    lattice."""
    lattice, arity = f.lattice, f.arity
    count = lattice.size ** arity
    guard_size(count * (count + 1) // 2, 1, "vector pairs")
    monotone = _is_monotone(f)
    key = (arity, kind, monotone)
    plan = lattice._pair_cache.get(key)
    if plan is None:
        plan = lattice._pair_cache[key] = PairPlan(
            related_positions(lattice, kind, arity, ordered=not monotone))
    return key, plan


def _grow_plan(lattice: Lattice, key: tuple, plan: PairPlan
               ) -> Iterator[tuple]:
    """Pull the anchors not yet built one at a time, append each one
    with a pair to the plan kept under key and yield it."""
    while plan.walk is not None:
        start = plan.total
        try:
            anchor = next(plan.walk, None)
        except BaseException:
            # a walk that raised is finished: the next check builds the
            # plan afresh
            lattice._pair_cache.pop(key, None)
            raise
        if anchor is None:
            plan.walk = None
            return
        a, ys, joins, meets, plan.total = anchor
        if ys:
            anchor = (a, start, array("i", ys), array("i", joins),
                      array("i", meets))
            plan.anchors.append(anchor)
            yield anchor


def relation_pairs(lattice: Lattice, arity: int, kind: RelationKind,
                   limit: int = 10 ** 7) -> tuple:
    """All vector pairs (x, y), x lex <= y, standing in the relation.

    The diagonal pairs (x, x) are included, and each vector is one
    shared tuple however many pairs hold it.  The pairs of each x are
    read off ``relations._related`` from x on.  More than ``limit``
    vector pairs are refused up front, and for the subsetwise kinds more
    than ``limit`` vector-subset identities, (2k^2)^n, as well: a tighter
    cap on the size of the output, which is built in full, so that the
    subsetwise kinds stop short of the sizes at which a pairwise region
    of one anchor, held whole, already takes gigabytes.
    """
    k = lattice.size
    count = k ** arity
    guard_size(count * (count + 1) // 2, 1, "vector pairs", limit)
    if kind in (RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET):
        guard_size(2 * k * k, arity, "vector-subset identities", limit)
    vectors = list(itertools.product(range(k), repeat=arity))
    return tuple((x, vectors[b]) for a, x in enumerate(vectors)
                 for b in _related(lattice, kind, x) if b >= a)


#: pair axiom kind -> (the relation its pairs stand in, supremal?)
_PAIR_RELATION = {
    AxiomKind.COMONOTONE_SUPREMAL: (RelationKind.COMONOTONE, True),
    AxiomKind.COMONOTONE_INFIMAL: (RelationKind.COMONOTONE, False),
    AxiomKind.G_COMONOTONE_SUPREMAL: (RelationKind.G_COMONOTONE, True),
    AxiomKind.G_COMONOTONE_INFIMAL: (RelationKind.G_COMONOTONE, False),
}


def _monotone_along_covers(lattice: Lattice, n: int, values: tuple,
                           edges: list) -> bool:
    """Whether f(x) <= f(y) whenever y raises one coordinate of x to an
    upper cover, compared in slices rather than point by point.

    For coordinate i, with stride s = k^(n-1-i), and cover edge (v, c),
    the points with x_i = v are compared with the points s * (c - v)
    further on.  They form k^i contiguous runs of s positions, or s
    stepped slices of k^i positions; the fewer, larger batches are
    taken.  Each comparison is one lookup in the order's byte table at
    f(x) * k + f(y).
    """
    k = lattice.size
    leq = lattice._leq_bytes
    scaled = [v * k for v in values]
    total = len(values)
    for stride in strides(k, n):
        block = stride * k
        for v, c in edges:
            shift = (c - v) * stride
            first = v * stride
            if total // block <= stride:
                batches = ((scaled[a:a + stride],
                            values[a + shift:a + shift + stride])
                           for a in range(first, total, block))
            else:
                batches = ((scaled[a::block], values[a + shift::block])
                           for a in range(first, first + stride))
            for below, above in batches:
                if not all(map(leq.__getitem__, map(add, below, above))):
                    return False
    return True


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
        # monotonicity along cover edges of the componentwise order,
        # one probe per (point, coordinate, cover of that coordinate)
        if _is_monotone(f):
            edges = sum(1 for _ in lattice.cover_pairs())
            return AxiomCheck(kind, True, None,
                              checked + n * (len(values) // k) * edges)
        # a step fails: find the first one point by point, for its witness
        # and count; a step from x_i to its cover c moves the position by
        # the difference times coordinate i's stride
        up = lattice._up
        covers = [lattice.upper_covers(a) for a in range(k)]
        place = strides(k, n)
        for pos, x in enumerate(f.domain()):
            above = up[values[pos]]
            for i, (v, stride) in enumerate(zip(x, place)):
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

    if kind in _HOMOGENEITY:
        infside, cube = _HOMOGENEITY[kind]
        # the abstract {0,1}^n cube: bottom enumerates before top
        letters = (lattice.bottom, lattice.top) if cube else range(k)
        op = meet_t if infside else join_t

        def positions(digits) -> list:
            # positions of the domain's points with each letter replaced
            # by its digit, in domain order, built one coordinate at a time
            out = [0]
            for _ in range(n):
                out = [p * k + d for p in out for d in digits]
            return out

        def getter(pos: list) -> itemgetter:
            # a getter of one position returns the bare value, so a
            # one-point domain takes a slice of one
            return itemgetter(*pos) if len(pos) > 1 else itemgetter(
                slice(pos[0], pos[0] + 1))

        # kept on the lattice for every table checked there: the points
        # x (all of them, or the cube's) and, per c, a getter of the
        # values at the points c op x and the map v -> c op v, a byte
        # translation table while every element fits in a byte
        wide = k > 256
        cached = lattice._homogeneity.get((n, kind))
        if cached is None:
            points = positions(letters) if cube else range(len(values))
            cached = lattice._homogeneity[n, kind] = (points, [
                getter(positions([op[c][v] for v in letters]))
                for c in range(k)], [
                op[c] if wide else bytes(op[c]) + bytes(256 - k)
                for c in range(k)])
        points, getters, scales = cached
        # each row, f(c op x) against c op f(x) over every point x, is
        # compared as two byte strings, or as tuples past one byte
        pack = tuple if wide else bytes
        fx = pack([values[a] for a in points] if cube else values)
        for c, (get, scale) in enumerate(zip(getters, scales)):
            left = pack(get(values))
            right = (tuple(map(scale.__getitem__, fx)) if wide
                     else fx.translate(scale))
            if left != right:
                failed = next(itertools.compress(itertools.count(), map(
                    ne, left, right)))
                return AxiomCheck(kind, False, (c, f.decode(points[failed])),
                                  checked + failed + 1)
            checked += len(points)
        return AxiomCheck(kind, True, None, checked)

    if kind in _PAIR_RELATION:
        relation, supremal = _PAIR_RELATION[kind]
        key, plan = _kept_plan(f, relation)
        op = join_t if supremal else meet_t
        for a, start, ys, joins, meets in itertools.chain(
                plan.anchors, _grow_plan(lattice, key, plan)):
            row = op[values[a]]
            for b, c in zip(ys, joins if supremal else meets):
                if values[c] != row[values[b]]:
                    # the pairs before x's, then x's from y = x through b
                    x = f.decode(a)
                    kept = plan.regions.get(a)
                    if kept is None:
                        own = _related(lattice, relation, x)
                        kept = plan.regions[a] = array(
                            "i", own[bisect_left(own, a):])
                    return AxiomCheck(kind, False, (x, f.decode(b)),
                                      start + bisect_right(kept, b))
        return AxiomCheck(kind, True, None, plan.total)

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


def _extremal(points: int, rows: list, side: int) -> tuple:
    """The maximal (side 1) or minimal (side 0) points of a set of
    positions, ascending, given each point's (below, above) order rows.
    The scan runs from the highest position down, and an extremal
    point's down-set (up-set) leaves it, since no point there is
    extremal."""
    found = []
    rest = points
    while rest:
        m = rest.bit_length() - 1
        if rows[m][side] & points == 1 << m:
            found.append(m)
            rest &= ~rows[m][1 - side]
        else:
            rest ^= 1 << m
    return tuple(reversed(found))


def _aggregation_fill(lattice: Lattice, arity: int) -> _MonotoneFill:
    """Aggregation tables as fills of the domain in product order.

    A point's bounds are the maximal earlier points below it and the
    minimal earlier points above it, read off its order rows cut to the
    earlier positions.  Every other earlier point below (above) it lies
    below (above) one of those, whose entry a monotone prefix already
    bounds, so the options of every entry are those of the full bounds.
    Both sides are needed, since element indices need not run along
    the order.  The all-bottom and all-top points are pinned to bottom
    and top.
    """
    rows, bounds = [], []
    for pos, x in enumerate(itertools.product(range(lattice.size),
                                              repeat=arity)):
        earlier = (1 << pos) - 1
        below, above = _order_rows(lattice, x)
        rows.append((below, above))
        bounds.append((_extremal(below & earlier, rows, 1),
                       _extremal(above & earlier, rows, 0)))
    pinned = {encode((lattice.bottom,) * arity, lattice.size): lattice.bottom,
              encode((lattice.top,) * arity, lattice.size): lattice.top}
    return _MonotoneFill(lattice, bounds, pinned)


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
    return (FunctionTable._trusted(lattice, arity, values, monotone=True)
            for values in _aggregation_fill(lattice, arity).tables())


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
    fill = _aggregation_fill(lattice, arity)
    return [FunctionTable._trusted(lattice, arity, values,
                                   "sample%d" % sample_idx, monotone=True)
            for sample_idx, values in enumerate(fill.draws(count, seed))]
