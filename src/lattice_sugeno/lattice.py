"""Finite bounded lattices with operation tables derived from a
validated order.

Elements are addressed by index into ``Lattice.elements``; names matter
only at the text interfaces.  Every constructor funnels through the same
validation pipeline, so any ``Lattice`` instance in circulation is a
genuine bounded lattice: the order is reflexive, antisymmetric and
transitive, bottom and top are unique, and every pair of elements has a
meet and a join.  The meet and join tables are read off the order's
down- and up-sets in k^2 lookups; the lattice laws hold for them as
theorems of a partial order with all pairwise bounds, so they are not
re-checked.
"""

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CyclicOrder, NoBounds, NotALattice, UnknownElement

# atom names for boolean_lattice(); the bounds take "0" and "1"
_ATOM_LETTERS = "pqrstuvwxyz"


class Lattice:
    """A finite bounded lattice over named elements.

    ``leq_rows[a][b]`` states that element ``a`` lies below element ``b``.
    The distributivity flag is tri-state: True / False once verified,
    None while unknown.  It is only ever filled in lazily by
    :func:`is_distributive`.
    """

    def __init__(self, name: str, elements: Sequence[str],
                 leq_rows: Sequence[Sequence[bool]],
                 distributive: bool | None = None):
        self.name = name
        self.elements = tuple(elements)
        size = len(self.elements)
        if size == 0:
            raise NoBounds("a bounded lattice needs at least one element")
        if len(set(self.elements)) != size:
            raise ValueError("duplicate element names: %r" % (self.elements,))
        if len(leq_rows) != size or any(len(r) != size for r in leq_rows):
            raise ValueError("leq table must be %d x %d" % (size, size))

        # order rows as bitmasks: bit b of _up[a] == (a <= b)
        up = [sum(1 << b for b in range(size) if row[b]) for row in leq_rows]
        full = (1 << size) - 1
        for a in range(size):
            if not up[a] >> a & 1:
                raise NotALattice("order is not reflexive at %s" % self.elements[a])
        for a in range(size):
            for b in range(size):
                if a != b and up[a] >> b & 1 and up[b] >> a & 1:
                    raise CyclicOrder("elements %s and %s lie below each other"
                                      % (self.elements[a], self.elements[b]))
                if up[a] >> b & 1 and up[a] | up[b] != up[a]:
                    raise NotALattice("order is not transitive at %s <= %s"
                                      % (self.elements[a], self.elements[b]))
        self._up = tuple(up)
        down = [0] * size
        for a in range(size):
            for b in range(size):
                if up[b] >> a & 1:
                    down[a] |= 1 << b
        self._down = tuple(down)

        bottoms = [a for a in range(size) if up[a] == full]
        tops = [a for a in range(size) if down[a] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NoBounds("need a unique bottom and top, found %d and %d"
                           % (len(bottoms), len(tops)))
        self.bottom = bottoms[0]
        self.top = tops[0]

        self._meet = self._bound_table(down, "meet")
        self._join = self._bound_table(up, "join")

        self._index = {e: i for i, e in enumerate(self.elements)}
        self._distributive = distributive
        self._distributive_witness: tuple | None = None
        # built on first use: (arity, relation kind, monotone tables?)
        # -> axioms.PairPlan, its anchors built as far as the checks have
        # read, the walk that yields the rest and, per anchor where a
        # check failed, the positions related to it that rank witnesses,
        # pairwise kind -> its k^2 relations.compatibility_table bitsets,
        # subsetwise kind -> {(closure of (fold x, fold y) pairs, digit v
        # of x): the list of (digit d of y, next closure) that
        # relations._letter_steps accepts, d ascending},
        # and (arity, homogeneity kind) -> the points x and, for every
        # c, a getter of a table's values at the points c ^ x (c v x) and
        # the byte map v -> c ^ v (c v v), all built by the first
        # axiom_check
        self._pair_cache: dict = {}
        self._letter_tables: dict = {}
        self._homogeneity: dict = {}

    def _bound_table(self, rows, kind: str):
        # glb(a, b) is the c whose down-set is exactly the common lower
        # bounds of a and b; lub is the dual with up-sets.  Antisymmetry
        # makes the rows distinct, so the lookup is a function.
        size = len(self.elements)
        owner = {row: c for c, row in enumerate(rows)}
        table = []
        for a in range(size):
            line = [owner.get(rows[a] & rows[b], -1) for b in range(size)]
            if -1 in line:
                b = line.index(-1)
                raise NotALattice(
                    "elements %s and %s have no %s"
                    % (self.elements[a], self.elements[b], kind),
                    pair=(a, b))
            table.append(tuple(line))
        return tuple(table)

    # -- basic queries -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def distributive_flag(self) -> bool | None:
        """True / False once verified, None while unverified."""
        return self._distributive

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement("no element named %r in lattice %s"
                                 % (name, self.name)) from None

    def _check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < len(self.elements):
            raise UnknownElement("no element with index %r in lattice %s"
                                 % (a, self.name))
        return a

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[self._check(a)] >> self._check(b) & 1)

    def meet(self, a: int, b: int) -> int:
        return self._meet[self._check(a)][self._check(b)]

    def join(self, a: int, b: int) -> int:
        return self._join[self._check(a)][self._check(b)]

    def meet_all(self, items: Iterable[int]) -> int:
        """Meet of any finite family; the empty meet is top."""
        out = self.top
        for v in items:
            out = self._meet[out][self._check(v)]
        return out

    def join_all(self, items: Iterable[int]) -> int:
        """Join of any finite family; the empty join is bottom."""
        out = self.bottom
        for v in items:
            out = self._join[out][self._check(v)]
        return out

    def upper_covers(self, a: int) -> tuple:
        return self._upper_covers[self._check(a)]

    @cached_property
    def _upper_covers(self) -> tuple:
        size = len(self.elements)
        ups = []
        for a in range(size):
            strictly_up = self._up[a] & ~(1 << a)
            covers = []
            for b in range(size):
                if not strictly_up >> b & 1:
                    continue
                between = strictly_up & self._down[b] & ~(1 << b)
                if between == 0:
                    covers.append(b)
            ups.append(tuple(covers))
        return tuple(ups)

    @cached_property
    def _leq_bytes(self) -> bytes:
        """The order as one flat byte table: entry a * k + b is 1 when
        a <= b, so a batch of comparisons is a batch of index lookups."""
        size = len(self.elements)
        return bytes(self._up[a] >> b & 1
                     for a in range(size) for b in range(size))

    def cover_pairs(self) -> Iterator[tuple]:
        """All covering pairs (lower, upper) in element order."""
        for a in range(len(self.elements)):
            for b in self.upper_covers(a):
                yield (a, b)

    def __repr__(self):
        return "Lattice(%s, %d elements)" % (self.name, len(self.elements))


def same_structure(a: Lattice, b: Lattice) -> bool:
    """Equal element names and equal order relation."""
    return a.elements == b.elements and a._up == b._up


# -- constructors ------------------------------------------------------


def chain(k: int) -> Lattice:
    """Totally ordered lattice 0 < 1 < ... < k-1, named by position."""
    if k < 1:
        raise ValueError("a chain needs at least one element")
    names = [str(i) for i in range(k)]
    rows = [[a <= b for b in range(k)] for a in range(k)]
    return Lattice("chain%d" % k, names, rows, distributive=True)


def boolean_lattice(m: int) -> Lattice:
    """Powerset of m atoms ordered by inclusion.

    Elements are named "0", "1" for the bounds and by concatenated atom
    letters (p, q, r, ...) in between, so boolean_lattice(2) has
    elements 0, p, q, 1 in subset order.
    """
    if m < 0:
        raise ValueError("atom count must be nonnegative")
    if m > len(_ATOM_LETTERS):
        raise ValueError("at most %d atoms supported" % len(_ATOM_LETTERS))
    full = (1 << m) - 1
    names = []
    for mask in range(1 << m):
        if mask == 0:
            names.append("0")
        elif mask == full:
            names.append("1")
        else:
            names.append("".join(_ATOM_LETTERS[i] for i in range(m)
                                 if mask >> i & 1))
    rows = [[a & b == a for b in range(1 << m)] for a in range(1 << m)]
    return Lattice("boolean%d" % m, names, rows, distributive=True)


def product(factors: Sequence[Lattice]) -> Lattice:
    """Direct product ordered componentwise.

    Element names join the factor names with dots.  The product is
    marked distributive only when every factor is verified distributive,
    and non-distributive as soon as one factor is.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    combos = list(itertools.product(*(range(f.size) for f in factors)))
    names = [".".join(f.elements[i] for f, i in zip(factors, combo))
             for combo in combos]
    rows = []
    for a in combos:
        rows.append([all(f._up[x] >> y & 1 for f, x, y in zip(factors, a, b))
                     for b in combos])
    if any(f._distributive is False for f in factors):
        flag = False
    elif all(f._distributive is True for f in factors):
        flag = True
    else:
        flag = None
    return Lattice("x".join(f.name for f in factors), names, rows,
                   distributive=flag)


def from_covers(name: str, elements: Sequence[str],
                covers: Iterable[tuple]) -> Lattice:
    """Build a lattice from its covering pairs (lower_name, upper_name).

    Raises CyclicOrder when the covers loop, NoBounds when bottom or top
    is not unique, NotALattice when some pair lacks a meet or a join.
    The distributivity flag is left unverified.
    """
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate element names: %r" % (elements,))
    above = [set() for _ in elements]
    for low, high in covers:
        for e in (low, high):
            if e not in index:
                raise UnknownElement("cover mentions unknown element %r" % (e,))
        if low == high:
            raise CyclicOrder("element %s covers itself" % low)
        above[index[low]].add(index[high])

    # depth-first closure with an explicit cycle check
    state = [0] * len(elements)  # 0 new, 1 active, 2 done
    reach = [set() for _ in elements]

    def visit(a, trail):
        if state[a] == 1:
            cyc = trail[trail.index(a):] + [a]
            raise CyclicOrder("cover cycle: %s"
                              % " < ".join(elements[i] for i in cyc))
        if state[a] == 2:
            return
        state[a] = 1
        for b in above[a]:
            visit(b, trail + [a])
            reach[a].add(b)
            reach[a] |= reach[b]
        state[a] = 2

    for a in range(len(elements)):
        visit(a, [])
    rows = [[a == b or b in reach[a] for b in range(len(elements))]
            for a in range(len(elements))]
    return Lattice(name, elements, rows)


def n5() -> Lattice:
    """The pentagon: 0 < a < b < 1 alongside 0 < c < 1."""
    return from_covers("N5", ["0", "a", "b", "c", "1"],
                       [("0", "a"), ("a", "b"), ("b", "1"),
                        ("0", "c"), ("c", "1")])


def m3() -> Lattice:
    """The diamond: three incomparable atoms between 0 and 1."""
    return from_covers("M3", ["0", "a", "b", "c", "1"],
                       [("0", "a"), ("0", "b"), ("0", "c"),
                        ("a", "1"), ("b", "1"), ("c", "1")])


# -- distributivity ----------------------------------------------------


def is_distributive(lattice: Lattice) -> bool:
    """Exhaustive check of x ^ (y v z) == (x ^ y) v (x ^ z).

    The verdict is cached on the lattice; a failing triple is kept as
    the witness.
    """
    if lattice._distributive is None:
        meet, join = lattice._meet, lattice._join
        elements = range(lattice.size)
        witness = next(
            ((x, y, z) for x in elements for y in elements for z in elements
             if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]), None)
        lattice._distributive_witness = witness
        lattice._distributive = witness is None
    return lattice._distributive


def distributivity_witness(lattice: Lattice) -> tuple | None:
    """The failing triple found by is_distributive, if any."""
    is_distributive(lattice)
    return lattice._distributive_witness

