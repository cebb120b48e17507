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
"""

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .capacity import Capacity, SugenoForm, sugeno
from .errors import (
    ArityMismatch,
    EnumerationTooLarge,
    NotAggregation,
)
from .lattice import Lattice
from .relations import (
    PAIRWISE_KINDS,
    RelationKind,
    compatibility_table,
    decode,
    encode,
    related_positions,
    relation_check,
)

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
    values = [sugeno(m, x, form) for x in
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


def relation_pairs(lattice: Lattice, arity: int, kind: RelationKind,
                   limit: int = 10 ** 7) -> tuple:
    """All vector pairs (x, y), x lex <= y, standing in the relation.

    The diagonal pairs (x, x) are included.  Pairwise kinds are grown
    from letter-compatibility bitsets in time proportional to the
    output; the other kinds test every pair.  Results are cached on the
    lattice per (arity, kind) because the supremal/infimal axiom checks
    and the cost model hit the same enumeration repeatedly.
    """
    key = (arity, kind)
    cached = lattice._pair_cache.get(key)
    if cached is not None:
        return cached
    count = lattice.size ** arity
    if count * (count + 1) // 2 > limit:
        raise EnumerationTooLarge(
            "%d vector pairs exceed the limit of %d"
            % (count * (count + 1) // 2, limit))
    vectors = list(itertools.product(range(lattice.size), repeat=arity))
    if kind in PAIRWISE_KINDS:
        table = compatibility_table(lattice, kind)
        result = tuple(
            (x, vectors[b]) for a, x in enumerate(vectors)
            for b in related_positions(table, lattice.size, x, a))
    else:
        pairs = []
        for a in range(len(vectors)):
            for b in range(a, len(vectors)):
                if relation_check(lattice, kind, vectors[a],
                                  vectors[b]).holds:
                    pairs.append((vectors[a], vectors[b]))
        result = tuple(pairs)
    lattice._pair_cache[key] = result
    return result


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
        # monotonicity along cover edges of the componentwise order
        for x in f.domain():
            fx = values[encode(x, k)]
            for i in range(n):
                for c in lattice.upper_covers(x[i]):
                    y = x[:i] + (c,) + x[i + 1:]
                    checked += 1
                    if not lattice.leq(fx, values[encode(y, k)]):
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
        pairs = relation_pairs(lattice, n, _SUPREMAL_RELATION[kind])
        supside = kind in (AxiomKind.COMONOTONE_SUPREMAL,
                           AxiomKind.G_COMONOTONE_SUPREMAL)
        op = join_t if supside else meet_t
        for x, y in pairs:
            checked += 1
            combined = tuple(op[a][b] for a, b in zip(x, y))
            if (values[encode(combined, k)]
                    != op[values[encode(x, k)]][values[encode(y, k)]]):
                return AxiomCheck(kind, False, (x, y), checked)
        return AxiomCheck(kind, True, None, checked)

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


def _earlier_bounds(lattice: Lattice, points: list) -> list:
    """Per point of ``points`` (product order), the bitmasks of the
    earlier points below it and of the earlier points above it.

    Each is the AND, over coordinates, of the points whose coordinate
    lies below (above) the point's own, cut to the earlier positions.
    """
    k, up = lattice.size, lattice._up
    n = len(points[0])
    # has[i][u]: the points whose coordinate i is u
    has = [[0] * k for _ in range(n)]
    for pos, x in enumerate(points):
        for i, u in enumerate(x):
            has[i][u] |= 1 << pos
    below = [[0] * k for _ in range(n)]
    above = [[0] * k for _ in range(n)]
    for i in range(n):
        for u in range(k):
            for v in range(k):
                if up[u] >> v & 1:
                    below[i][v] |= has[i][u]
                    above[i][u] |= has[i][v]
    out = []
    for pos, x in enumerate(points):
        lo = hi = (1 << pos) - 1
        for i, v in enumerate(x):
            lo &= below[i][v]
            hi &= above[i][v]
        out.append((lo, hi))
    return out


def _interval(lattice: Lattice, values: list, lo: int, hi: int) -> tuple:
    """(join of values over the set bits of lo, meet over those of hi)."""
    join_t, meet_t = lattice._join, lattice._meet
    floor, ceil = lattice.bottom, lattice.top
    while lo:
        low = lo & -lo
        lo ^= low
        floor = join_t[floor][values[low.bit_length() - 1]]
    while hi:
        low = hi & -hi
        hi ^= low
        ceil = meet_t[ceil][values[low.bit_length() - 1]]
    return floor, ceil


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
    points = list(itertools.product(range(lattice.size), repeat=arity))
    bounds = _earlier_bounds(lattice, points)
    bottom_pos = points.index((lattice.bottom,) * arity)
    top_pos = points.index((lattice.top,) * arity)
    up = lattice._up
    values = [lattice.bottom] * count

    def extend(pos: int) -> Iterator[FunctionTable]:
        if pos == count:
            yield FunctionTable(lattice, arity, tuple(values))
            return
        if pos == bottom_pos:
            candidates = (lattice.bottom,)
        elif pos == top_pos:
            candidates = (lattice.top,)
        else:
            candidates = range(lattice.size)
        floor, ceil = _interval(lattice, values, *bounds[pos])
        for v in candidates:
            if up[floor] >> v & 1 and up[v] >> ceil & 1:
                values[pos] = v
                yield from extend(pos + 1)
        values[pos] = lattice.bottom

    return extend(0)


def sample_aggregations(lattice: Lattice, arity: int, count: int,
                        seed: int) -> list:
    """Reproducible random aggregation tables.

    Entries are assigned in index order, each drawn uniformly from the
    elements compatible with every already-assigned comparable point.
    The feasible set is never empty: pairwise-consistent assignments
    always leave the interval between the join of the floors and the
    meet of the ceilings inhabited.
    """
    rng = random.Random(seed)
    points = list(itertools.product(range(lattice.size), repeat=arity))
    bounds = _earlier_bounds(lattice, points)
    total = len(points)
    bottom_pos = points.index((lattice.bottom,) * arity)
    top_pos = points.index((lattice.top,) * arity)
    up = lattice._up
    out = []
    for sample_idx in range(count):
        values = [lattice.bottom] * total
        for pos in range(total):
            if pos == bottom_pos:
                values[pos] = lattice.bottom
                continue
            if pos == top_pos:
                values[pos] = lattice.top
                continue
            floor, ceil = _interval(lattice, values, *bounds[pos])
            candidates = [v for v in range(lattice.size)
                          if up[floor] >> v & 1 and up[v] >> ceil & 1]
            values[pos] = rng.choice(candidates)
        out.append(FunctionTable(lattice, arity, tuple(values),
                                 name="sample%d" % sample_idx))
    return out
