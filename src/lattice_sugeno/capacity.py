"""Lattice-valued capacities and the discrete Sugeno integral.

A capacity assigns a lattice element to every subset of the coordinate
set {1..n}, monotonely, with the empty set at bottom and the full set
at top.  Subsets are bit-masks: bit i stands for coordinate i.

The integral of a vector x against a capacity m comes in two forms:

* sup of meets:  join over all subsets I of  m(I) ^ meet_{i in I} x_i
* inf of joins:  meet over all subsets I of  m(full - I) v join_{i in I} x_i

On distributive lattices the two forms coincide; elsewhere they may
differ and both are exposed.
"""

import random
from enum import Enum
from typing import Iterator, Sequence

from .errors import (
    ArityMismatch,
    BoundaryViolation,
    MonotonicityViolation,
    guard_size,
)
from .lattice import Lattice
from .relations import check_vector


class SugenoForm(Enum):
    SUP_OF_MEETS = "sup"
    INF_OF_JOINS = "inf"


class Capacity:
    """Validated monotone set function; build via validate_capacity."""

    __slots__ = ("lattice", "arity", "values", "name")

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

    def __eq__(self, other):
        return (isinstance(other, Capacity)
                and self.lattice is other.lattice
                and self.arity == other.arity
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.lattice), self.arity, self.values))

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
    return _integral(m, x, form)


def _integral(m: Capacity, x: tuple, form: SugenoForm) -> int:
    """The integral of a vector of m's arity whose coordinates are
    element indices already known to be valid.

    Subset meets and joins of x are tabulated by a low-bit recurrence,
    so the whole evaluation is one pass over the 2^n masks.
    """
    lattice = m.lattice
    size = 1 << m.arity
    meet_t, join_t = lattice._meet, lattice._join
    if form is SugenoForm.SUP_OF_MEETS:
        meets = [lattice.top] * size
        out = lattice.bottom
        for mask in range(1, size):
            low = mask & -mask
            meets[mask] = meet_t[meets[mask & (mask - 1)]][x[low.bit_length() - 1]]
            out = join_t[out][meet_t[m.values[mask]][meets[mask]]]
        return out
    if form is SugenoForm.INF_OF_JOINS:
        joins = [lattice.bottom] * size
        out = lattice.top
        full = size - 1
        for mask in range(1, size):
            low = mask & -mask
            joins[mask] = join_t[joins[mask & (mask - 1)]][x[low.bit_length() - 1]]
            out = meet_t[out][join_t[m.values[full ^ mask]][joins[mask]]]
        return out
    raise ValueError("unknown form: %r" % (form,))


def _candidates(lattice: Lattice, values: list, mask: int,
                arity: int) -> list:
    """The elements, in order, above the join of the values already
    fixed at the lower covers of mask: its monotone choices."""
    floor = lattice.bottom
    for i in range(arity):
        if mask >> i & 1:
            floor = lattice._join[floor][values[mask & ~(1 << i)]]
    return [v for v in range(lattice.size) if lattice._up[floor] >> v & 1]


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
    size = 1 << arity
    values = [lattice.bottom] * size
    values[size - 1] = lattice.top

    def extend(mask: int) -> Iterator[Capacity]:
        if mask == size - 1:
            yield Capacity(lattice, arity, tuple(values))
            return
        for v in _candidates(lattice, values, mask, arity):
            values[mask] = v
            yield from extend(mask + 1)
        values[mask] = lattice.bottom

    return extend(1)


def sample_capacities(lattice: Lattice, arity: int, count: int,
                      seed: int) -> list:
    """Reproducible random capacities from a seeded generator.

    Values are drawn subset by subset in mask order, uniformly among
    the elements compatible with the already-fixed lower covers.  Not a
    uniform distribution over capacities, but deterministic per seed.
    """
    rng = random.Random(seed)
    size = 1 << arity
    out = []
    for k in range(count):
        values = [lattice.bottom] * size
        values[size - 1] = lattice.top
        for mask in range(1, size - 1):
            values[mask] = rng.choice(
                _candidates(lattice, values, mask, arity))
        out.append(Capacity(lattice, arity, values, name="sample%d" % k))
    return out
