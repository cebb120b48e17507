"""Lattice-valued capacities and the discrete Sugeno integral.

A capacity assigns a lattice element to every subset of the coordinate
set {1..n}, monotonely, with the empty set at bottom and the full set
at top.  Subsets are bit-masks: bit i stands for coordinate i.

The integral of a vector x against a capacity m comes in two forms:

* sup of meets:  join over all subsets I of  m(I) ^ meet_{i in I} x_i
* inf of joins:  meet over all subsets I of  m(full - I) v join_{i in I} x_i

On distributive lattices the two forms coincide; elsewhere they may
differ and both are exposed.  One kernel, _integral_table, computes
either form at a single point (sugeno) or at every point of the domain
(sugeno_table, the recognizer's re-check).  Capacities are enumerated
and sampled by _MonotoneFill, which fills the aggregation tables of
axioms as well.
"""

import random
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BoundaryViolation,
    MonotonicityViolation,
    guard_size,
)
from .lattice import Lattice
from .relations import _positions, check_vector, strides


class SugenoForm(Enum):
    SUP_OF_MEETS = "sup"
    INF_OF_JOINS = "inf"


class _Table:
    """Values over one lattice at one arity, with a name.  Two tables are
    equal when they are of the same class, over the same lattice object,
    with the same arity and values; the name plays no part."""

    __slots__ = ("lattice", "arity", "values", "name")

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.lattice is other.lattice
                and self.arity == other.arity
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.lattice), self.arity, self.values))


class Capacity(_Table):
    """Validated monotone set function; build via validate_capacity."""

    __slots__ = ()

    def __init__(self, lattice: Lattice, arity: int, values: Sequence[int],
                 name: str = "m"):
        self.lattice = lattice
        self.arity = arity
        self.values = tuple(values)
        self.name = name

    def value(self, mask: int) -> int:
        if not 0 <= mask < 1 << self.arity:
            raise ArityMismatch("subset mask %#x out of range for arity %d"
                                % (mask, self.arity))
        return self.values[mask]

    def __repr__(self):
        return "Capacity(%s, arity=%d, %r)" % (self.lattice.name, self.arity,
                                               self.values)


def format_subset(mask: int) -> str:
    """Render a subset mask as {1,3}-style text, coordinates 1-based."""
    inside = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{%s}" % ",".join(inside)


def validate_capacity(lattice: Lattice, arity: int, values: Sequence[int],
                      name: str = "m") -> Capacity:
    """Check boundaries and monotonicity; collect every violation.

    Monotonicity is checked over the cover pairs of the subset lattice
    (X against X plus one coordinate).  All defects are gathered into
    the raised error, boundary defects first; the error class names the
    first category present.
    """
    if arity < 1:
        raise ArityMismatch("capacity arity must be at least 1")
    size = 1 << arity
    values = tuple(values)
    if len(values) != size:
        raise ArityMismatch("need %d subset values, got %d"
                            % (size, len(values)))
    for v in values:
        lattice._check(v)

    violations = []
    if values[0] != lattice.bottom:
        violations.append(("boundary", 0))
    if values[size - 1] != lattice.top:
        violations.append(("boundary", size - 1))
    up = lattice._up
    for mask in range(size):
        for i in range(arity):
            if mask >> i & 1:
                continue
            larger = mask | 1 << i
            if not up[values[mask]] >> values[larger] & 1:
                violations.append(("monotonicity", mask, larger))
    if violations:
        parts = []
        for v in violations:
            if v[0] == "boundary":
                parts.append("boundary at %s" % format_subset(v[1]))
            else:
                parts.append("monotonicity at %s < %s"
                             % (format_subset(v[1]), format_subset(v[2])))
        message = "invalid capacity: " + "; ".join(parts)
        if violations[0][0] == "boundary":
            raise BoundaryViolation(message, violations)
        raise MonotonicityViolation(message, violations)
    return Capacity(lattice, arity, values, name)


def characteristic_vector(lattice: Lattice, arity: int, mask: int) -> tuple:
    """Vector with top on the coordinates of the subset, bottom elsewhere."""
    return tuple(lattice.top if mask >> i & 1 else lattice.bottom
                 for i in range(arity))


def sugeno(m: Capacity, x: Sequence[int],
           form: SugenoForm = SugenoForm.SUP_OF_MEETS) -> int:
    """Evaluate the integral in the requested form."""
    x = check_vector(m.lattice, x)
    if len(x) != m.arity:
        raise ArityMismatch("vector has %d coordinates, capacity wants %d"
                            % (len(x), m.arity))
    return _integral_table(m, form, x)[0]


def _integral_table(m: Capacity, form: SugenoForm,
                    x: tuple | None = None, stop: int | None = None) -> list:
    """The integral of every vector of m's arity, in product order, or
    only of x, a vector of m's arity whose coordinates are element
    indices already known to be valid.  With ``stop``, only the first
    ``stop`` vectors in product order are evaluated.

    The sup form is S(x) = join over I of m(I) ^ meet_{i in I} x_i.
    Fixing the coordinates one at a time, each prefix keeps, for every
    subset J of the coordinates still free, the down-closure D(J) of
    the terms m(J + I) ^ meet_{i in I} x_i over the subsets I of the
    fixed ones, as a k-bit mask over ``_down``.  Fixing coordinate j
    to v gives D'(J) = D(J) | (D(J + {j}) & down(v)), since on any
    lattice {t ^ v : t in down(T)} = down(T) & down(v); at the end S(x)
    is the join of D(empty set).  The inf form is the dual, with up-sets
    from m(full - J) and a final meet.  Both are exact on every lattice
    and cost about k^n * k/(k-2) mask operations, not k^n * 2^n; fixing
    the single digit x_j at each coordinate j costs 2^n in all.

    Levels are stored subset-major: level[J] holds the masks of all
    prefixes in product order, so each fixed coordinate extends every
    row by the digits fixed there.  Once coordinate j is fixed, only the
    first ceil(stop / k^(n-1-j)) prefixes lead to a vector before
    ``stop``, and each row is cut to them.
    """
    lattice = m.lattice
    if form is SugenoForm.SUP_OF_MEETS:
        closure, bound = lattice._down, lattice.join_all
        level = [[closure[v]] for v in m.values]
    elif form is SugenoForm.INF_OF_JOINS:
        closure, bound = lattice._up, lattice.meet_all
        level = [[closure[v]] for v in reversed(m.values)]
    else:
        raise ValueError("unknown form: %r" % (form,))
    place = strides(len(closure), m.arity)
    for j in range(m.arity):
        digits = closure if x is None else [closure[x[j]]]
        # J without coordinate j at even rows, with it at odd
        level = [[a | b & c for a, b in zip(without, with_) for c in digits]
                 for without, with_ in zip(level[0::2], level[1::2])]
        if stop is not None:
            keep = -(-stop // place[j])
            level = [row[:keep] for row in level]
    masks = level[0]
    value = {mask: bound(_positions(mask)) for mask in set(masks)}
    return [value[mask] for mask in masks]


class _MonotoneFill(NamedTuple):
    """Fills a table into a lattice entry by entry in position order,
    monotonely: each entry lies above the earlier entries below it and
    under the earlier entries above it.

    ``bounds[pos]`` is the pair (lo, hi) of tuples of positions before
    pos that lie below and above it, enough that every earlier position
    below (above) pos lies below (above) one of them; ``pinned`` maps
    positions to the values they take outright.  The options of any
    other position are the elements, in element order, above every lo entry
    and under every hi entry: the AND of their up- and down-sets, since
    an element is above a join exactly when it is above each joinand.
    Capacities and aggregation tables are both filled by it; only their
    bounds differ.
    """

    lattice: Lattice
    bounds: list
    pinned: dict

    def _choices(self, values: list, pos: int, options: dict) -> list:
        """The options of pos after the prefix ``values[:pos]``; the
        list of each element set is made once and kept in ``options``."""
        if pos in self.pinned:
            return [self.pinned[pos]]
        up, down = self.lattice._up, self.lattice._down
        lo, hi = self.bounds[pos]
        allowed = (1 << len(up)) - 1
        for p in lo:
            allowed &= up[values[p]]
        for p in hi:
            allowed &= down[values[p]]
        found = options.get(allowed)
        if found is None:
            found = options[allowed] = list(_positions(allowed))
        return found

    def tables(self) -> Iterator[tuple]:
        """Every fill once, in lexicographic order.  The backtracking
        search keeps one options iterator per fixed position and only
        ever extends a prefix by an option, so it visits monotone
        prefixes only."""
        values = [self.lattice.bottom] * len(self.bounds)
        options = {}
        stack = [iter(self._choices(values, 0, options))]
        while stack:
            pos = len(stack) - 1
            values[pos] = next(stack[-1], None)
            if values[pos] is None:
                stack.pop()
            elif pos + 1 == len(values):
                yield tuple(values)
            else:
                stack.append(iter(self._choices(values, pos + 1, options)))

    def draws(self, count: int, seed: int) -> Iterator[list]:
        """count fills from one ``random.Random(seed)``: each free entry
        is drawn by ``rng.choice`` among its options, and pinned entries
        take their value without a draw."""
        rng = random.Random(seed)
        options = {}
        for _ in range(count):
            values = [self.lattice.bottom] * len(self.bounds)
            for pos in range(len(values)):
                values[pos] = (self.pinned[pos] if pos in self.pinned
                               else rng.choice(self._choices(values, pos,
                                                             options)))
            yield values


def _capacity_fill(lattice: Lattice, arity: int) -> _MonotoneFill:
    """Capacities as fills of the subset table in mask order: each
    subset lies above its lower covers (the mask less one set bit), and
    the empty and full sets are pinned to bottom and top.  More than
    10^7 subsets are refused, which only a one-element lattice reaches."""
    guard_size(2, arity, "subsets")
    size = 1 << arity
    bounds = [(tuple(mask ^ 1 << i for i in range(arity) if mask >> i & 1),
               ()) for mask in range(size)]
    return _MonotoneFill(lattice, bounds,
                         {0: lattice.bottom, size - 1: lattice.top})


def enumerate_capacities(lattice: Lattice, arity: int,
                         limit: int = 10 ** 6) -> Iterator[Capacity]:
    """Yield every capacity once, in lexicographic subset-table order.

    The search assigns subset values in increasing mask order and
    abandons a branch as soon as a value drops below an already-fixed
    lower cover, so only monotone prefixes are ever extended.  The
    guard bounds the a-priori assignment space |L|^(2^n - 2).
    """
    if arity < 1:
        raise ArityMismatch("capacity arity must be at least 1")
    guard_size(lattice.size, (1 << arity) - 2, "candidate tables", limit)
    return (Capacity(lattice, arity, values)
            for values in _capacity_fill(lattice, arity).tables())


def sample_capacities(lattice: Lattice, arity: int, count: int,
                      seed: int) -> list:
    """Reproducible random capacities from a seeded generator.

    Values are drawn subset by subset in mask order, uniformly among
    the elements compatible with the already-fixed lower covers.  Not a
    uniform distribution over capacities, but deterministic per seed.
    """
    fill = _capacity_fill(lattice, arity)
    return [Capacity(lattice, arity, values, name="sample%d" % k)
            for k, values in enumerate(fill.draws(count, seed))]
