"""Agreement relations between vectors over a finite bounded lattice.

A vector is a tuple of element indices, one per coordinate.  The six
relations here all capture a flavour of "x and y do not pull in
opposite directions":

* comonotone: every coordinate pair is ordered the same way in x and y.
* comparable: x <= y or y <= x coordinatewise.
* g-comonotone and its dual: the pairwise interchange identity
  (x_i v y_i) ^ (x_j v y_j) == (x_i ^ x_j) v (y_i ^ y_j), and the dual
  with meets and joins swapped.  Comonotone or comparable vectors are
  always g-comonotone; on non-distributive lattices the two dual
  variants can disagree.
* subsetwise join / meet agreement: the same interchange quantified
  over every nonempty subset of coordinates instead of pairs.

Checks short-circuit on the first failing identity and report it as a
witness, along with how many identities were evaluated.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import ArityMismatch, guard_size
from .lattice import Lattice


class RelationKind(Enum):
    COMONOTONE = "comonotone"
    COMPARABLE = "comparable"
    G_COMONOTONE = "g-comonotone"
    DUAL_G_COMONOTONE = "dual-g-comonotone"
    SUBSETWISE_JOIN = "subsetwise-join"
    SUBSETWISE_MEET = "subsetwise-meet"


#: kinds whose defining identity ranges over coordinate pairs
PAIRWISE_KINDS = frozenset({
    RelationKind.COMONOTONE,
    RelationKind.G_COMONOTONE,
    RelationKind.DUAL_G_COMONOTONE,
})


@dataclass(frozen=True)
class RelationResult:
    kind: RelationKind
    holds: bool
    witness: tuple | None
    identities_checked: int


def check_vector(lattice: Lattice, x: Sequence[int]) -> tuple:
    """Validate a vector of element indices; returns it as a tuple."""
    x = tuple(x)
    if not x:
        raise ArityMismatch("vectors need at least one coordinate")
    for v in x:
        lattice._check(v)
    return x


def _pair_identity(lattice: Lattice, kind: RelationKind,
                   xi, xj, yi, yj) -> bool:
    up, meet, join = lattice._up, lattice._meet, lattice._join
    if kind is RelationKind.COMONOTONE:
        return bool((up[xi] >> xj & 1 and up[yi] >> yj & 1) or
                    (up[xj] >> xi & 1 and up[yj] >> yi & 1))
    if kind is RelationKind.G_COMONOTONE:
        return (meet[join[xi][yi]][join[xj][yj]]
                == join[meet[xi][xj]][meet[yi][yj]])
    if kind is RelationKind.DUAL_G_COMONOTONE:
        return (join[meet[xi][yi]][meet[xj][yj]]
                == meet[join[xi][xj]][join[yi][yj]])
    raise ValueError("not a pairwise kind: %s" % kind)


def relation_check(lattice: Lattice, kind: RelationKind,
                   x: Sequence[int], y: Sequence[int]) -> RelationResult:
    """Test one relation, reporting the first failing identity if any.

    For pairwise kinds the witness is the coordinate pair (i, j); the
    diagonal identities hold trivially so only i < j is evaluated.  For
    the comparable relation the witness pairs the first coordinate
    breaking each direction.  For subsetwise kinds it is the first
    failing subset, as a tuple of coordinate positions.
    """
    x = check_vector(lattice, x)
    y = check_vector(lattice, y)
    if len(x) != len(y):
        raise ArityMismatch("vectors have %d and %d coordinates"
                            % (len(x), len(y)))
    n = len(x)
    checked = 0

    if kind in PAIRWISE_KINDS:
        for i in range(n):
            for j in range(i + 1, n):
                checked += 1
                if not _pair_identity(lattice, kind, x[i], x[j], y[i], y[j]):
                    return RelationResult(kind, False, (i, j), checked)
        return RelationResult(kind, True, None, checked)

    if kind is RelationKind.COMPARABLE:
        up = lattice._up
        below = above = None
        for i in range(n):
            checked += 1
            if not up[x[i]] >> y[i] & 1:
                below = i
                break
        for j in range(n):
            checked += 1
            if not up[y[j]] >> x[j] & 1:
                above = j
                break
        if below is None or above is None:
            return RelationResult(kind, True, None, checked)
        return RelationResult(kind, False, (below, above), checked)

    # subsetwise kinds: every nonempty subset of coordinates, masks in
    # increasing order, bit i <-> coordinate i
    meet_all, join_all = lattice.meet_all, lattice.join_all
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        checked += 1
        if kind is RelationKind.SUBSETWISE_JOIN:
            lhs = meet_all(lattice._join[x[i]][y[i]] for i in idx)
            rhs = lattice._join[meet_all(x[i] for i in idx)][
                meet_all(y[i] for i in idx)]
        elif kind is RelationKind.SUBSETWISE_MEET:
            lhs = join_all(lattice._meet[x[i]][y[i]] for i in idx)
            rhs = lattice._meet[join_all(x[i] for i in idx)][
                join_all(y[i] for i in idx)]
        else:
            raise ValueError("unknown relation kind: %r" % (kind,))
        if lhs != rhs:
            return RelationResult(kind, False, tuple(idx), checked)
    return RelationResult(kind, True, None, checked)


def relation_holds(lattice: Lattice, kind: RelationKind,
                   x: Sequence[int], y: Sequence[int]) -> bool:
    return relation_check(lattice, kind, x, y).holds


def all_vectors(lattice: Lattice, n: int,
                limit: int = 10 ** 7) -> Iterator[tuple]:
    """All vectors of arity n in itertools.product order."""
    if n < 1:
        raise ArityMismatch("vectors need at least one coordinate")
    guard_size(lattice.size, n, "vectors", limit)
    return itertools.product(range(lattice.size), repeat=n)


def compatibility_table(lattice: Lattice, kind: RelationKind) -> list:
    """Letter compatibility of a pairwise kind, as bitsets.

    A vector pair (x, y) is a word of letters (x_i, y_i).  Entry
    ``[a * k + b][c]`` is a k-bit mask with bit d set when letter (a, b)
    at some coordinate and letter (c, d) at a later one satisfy the
    kind's identity; (x, y) is related exactly when every two of its
    letters are compatible.  Costs k^4 identity evaluations.
    """
    k = lattice.size
    table = []
    for a in range(k):
        for b in range(k):
            row = []
            for c in range(k):
                mask = 0
                for d in range(k):
                    if _pair_identity(lattice, kind, a, c, b, d):
                        mask |= 1 << d
                row.append(mask)
            table.append(row)
    return table


def related_positions(table: list, k: int, x: tuple,
                      floor: int = 0) -> list:
    """Mixed-radix positions of the y related to x, in increasing order.

    ``table`` is a compatibility_table over k elements.  y is grown one
    coordinate at a time: the values allowed at coordinate j are the
    AND of the table rows of the letters already chosen, so only
    prefixes of related vectors are visited.  Positions below
    ``floor`` are pruned as soon as their prefix falls below floor's.
    """
    n = len(x)
    # (prefix position, allowed-value masks of the coordinates still open)
    frontier = [(0, ((1 << k) - 1,) * n)]
    for j in range(n - 1):
        later = x[j + 1:]
        lo = floor // k ** (n - 1 - j)
        letters = table[x[j] * k:(x[j] + 1) * k]
        grown = []
        for pos, masks in frontier:
            allowed = masks[0]
            rest = masks[1:]
            base = pos * k
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                d = low.bit_length() - 1
                if base + d >= lo:
                    row = letters[d]
                    grown.append((base + d, tuple(
                        [m & row[c] for m, c in zip(rest, later)])))
        frontier = grown
    out = []
    for pos, (allowed,) in frontier:
        base = pos * k
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            if base + low.bit_length() - 1 >= floor:
                out.append(base + low.bit_length() - 1)
    return out


def encode(x: Sequence[int], k: int) -> int:
    """Mixed-radix position of x over k elements, coordinate 0 most
    significant: the index of x in itertools.product order."""
    pos = 0
    for v in x:
        pos = pos * k + v
    return pos


def decode(pos: int, k: int, n: int) -> tuple:
    """The arity-n vector at mixed-radix position pos; inverts encode."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        pos, out[i] = divmod(pos, k)
    return tuple(out)


def relation_region(lattice: Lattice, kind: RelationKind,
                    x: Sequence[int], limit: int = 10 ** 7) -> tuple:
    """All vectors y standing in the relation to x, in product order.

    Pairwise kinds are enumerated in time proportional to the region.
    """
    x = check_vector(lattice, x)
    vectors = all_vectors(lattice, len(x), limit)  # raises past the limit
    if kind in PAIRWISE_KINDS:
        k = lattice.size
        table = compatibility_table(lattice, kind)
        return tuple(decode(pos, k, len(x))
                     for pos in related_positions(table, k, x))
    return tuple(y for y in vectors
                 if relation_check(lattice, kind, x, y).holds)

