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
witness, along with how many identities were evaluated.  Questions over
the whole domain (regions, related pairs, the theorem suites) read
verdict rows instead: per anchor x and kind, one bitmask over all k^n
vectors in product order, built by ``_VerdictRows``.
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
    letters are compatible.  Costs k^4 identity evaluations, so more
    than 10^7 of them are refused up front.
    """
    guard_size(lattice.size, 4, "letter pairs")
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


def related_positions(table: list, lattice: Lattice, x: tuple,
                      floor: int = 0) -> tuple:
    """The y related to x, as three lists of mixed-radix positions:
    y itself in increasing order, then x v y and x ^ y pair by pair.

    ``table`` is a compatibility_table of the lattice.  y is grown one
    coordinate at a time: the values allowed at coordinate j are the
    AND of the table rows of the letters already chosen, so only
    prefixes of related vectors are visited.  The positions of x v y
    and x ^ y grow digit by digit alongside, so nothing is decoded.
    Positions below ``floor`` are pruned as soon as their prefix falls
    below floor's.
    """
    k, join, meet = lattice.size, lattice._join, lattice._meet
    n = len(x)
    # (prefix positions of y, x v y and x ^ y, allowed-value masks of
    # the coordinates still open)
    frontier = [(0, 0, 0, ((1 << k) - 1,) * n)]
    for j in range(n - 1):
        later = x[j + 1:]
        lo = floor // k ** (n - 1 - j)
        letters = table[x[j] * k:(x[j] + 1) * k]
        join_x, meet_x = join[x[j]], meet[x[j]]
        grown = []
        for pos, pos_join, pos_meet, masks in frontier:
            allowed = masks[0]
            rest = masks[1:]
            base, base_join, base_meet = pos * k, pos_join * k, pos_meet * k
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                d = low.bit_length() - 1
                if base + d >= lo:
                    row = letters[d]
                    still_open = tuple([m & row[c]
                                        for m, c in zip(rest, later)])
                    grown.append((base + d, base_join + join_x[d],
                                  base_meet + meet_x[d], still_open))
        frontier = grown
    ys, joins, meets = [], [], []
    join_x, meet_x = join[x[-1]], meet[x[-1]]
    for pos, pos_join, pos_meet, (allowed,) in frontier:
        base, base_join, base_meet = pos * k, pos_join * k, pos_meet * k
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            d = low.bit_length() - 1
            if base + d >= floor:
                ys.append(base + d)
                joins.append(base_join + join_x[d])
                meets.append(base_meet + meet_x[d])
    return ys, joins, meets


def order_masks(lattice: Lattice, n: int) -> tuple:
    """(below, above): ``below[i][v]`` is the bitmask, over the k^n
    positions in product order, of the vectors whose coordinate i lies
    below v; ``above[i][v]`` of those whose coordinate i lies above v.

    The positions with digit u at coordinate i form one block of
    k^(n-1-i) bits per period of k^(n-i); multiplying a period's blocks
    by a repunit with one bit per period repeats them over the domain.
    """
    k, up = lattice.size, lattice._up
    total = k ** n
    below, above = [], []
    for i in range(n):
        stride = k ** (n - 1 - i)
        period = stride * k
        repeat = ((1 << total) - 1) // ((1 << period) - 1)
        digit = [((1 << stride) - 1) << (u * stride) for u in range(k)]
        below.append([sum(digit[u] for u in range(k) if up[u] >> v & 1)
                      * repeat for v in range(k)])
        above.append([sum(digit[u] for u in range(k) if up[v] >> u & 1)
                      * repeat for v in range(k)])
    return below, above


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


class _VerdictRows:
    """Verdict rows of one lattice and arity: for an anchor x and a
    relation kind, the bitmask over the k^n positions (product order)
    of the y that x is related to.

    Pairwise kinds come from the relation's compatibility table, grown
    in time proportional to the row; comparable is the AND of the
    coordinates' up-masks OR'd with the AND of their down-masks; the
    two subsetwise kinds come from one pass over every y, kept for the
    last anchor.  Rows are built per anchor and dropped, so no N x N
    matrix is kept.
    """

    def __init__(self, lattice: Lattice, arity: int):
        self.lattice = lattice
        self.arity = arity
        self.masks = None  # order_masks, built for the first comparable row
        self.tables = {}
        self.subsetwise = (None, 0, 0)

    def __call__(self, kind: RelationKind, x: tuple) -> int:
        lattice = self.lattice
        if kind is RelationKind.COMPARABLE:
            if self.masks is None:
                self.masks = order_masks(lattice, self.arity)
            below, above = self.masks
            lo = hi = -1
            for i, v in enumerate(x):
                lo &= below[i][v]
                hi &= above[i][v]
            return lo | hi
        if kind in PAIRWISE_KINDS:
            table = self.tables.get(kind)
            if table is None:
                table = self.tables[kind] = compatibility_table(lattice, kind)
            # rows are built as strings of binary digits, position 0
            # first: OR-ing each bit into an int costs the row's length
            digits = bytearray(b"0") * lattice.size ** self.arity
            for pos in related_positions(table, lattice, x)[0]:
                digits[pos] = 49  # ord("1")
            return int(digits[::-1], 2)
        anchor, join_row, meet_row = self.subsetwise
        if anchor != x:
            join_row, meet_row = _subsetwise_rows(lattice, x)
            self.subsetwise = (x, join_row, meet_row)
        return join_row if kind is RelationKind.SUBSETWISE_JOIN else meet_row


def _lowest(mask: int) -> int:
    """Position of the lowest set bit: the first witness of a row."""
    return (mask & -mask).bit_length() - 1


def _positions(row: int, start: int = 0) -> Iterator[int]:
    """The set bits of a verdict row from ``start`` on, in increasing
    order, found in one scan of its binary digits."""
    bits = bin(row)[:1:-1]
    pos = bits.find("1", start)
    while pos >= 0:
        yield pos
        pos = bits.find("1", pos + 1)


def _subsetwise_rows(lattice: Lattice, x: tuple) -> tuple:
    """Verdict rows of the subsetwise join and meet kinds for anchor x.

    Every nonempty coordinate subset is visited in increasing mask
    order; a subset's meets and joins extend those of the subset
    without its lowest coordinate, so each identity costs a few table
    lookups on already-validated element indices.
    """
    meet, join = lattice._meet, lattice._join
    size = 1 << len(x)
    subsets = [(mask, mask & (mask - 1), _lowest(mask))
               for mask in range(1, size)]
    x_meets = [lattice.top] * size
    x_joins = [lattice.bottom] * size
    for mask, rest, i in subsets:
        x_meets[mask] = meet[x_meets[rest]][x[i]]
        x_joins[mask] = join[x_joins[rest]][x[i]]
    y_meets = [lattice.top] * size
    y_joins = [lattice.bottom] * size
    meet_of_joins = [lattice.top] * size
    join_of_meets = [lattice.bottom] * size
    # the two rows' binary digits, position 0 first, as for the pairwise
    # rows; a failing identity clears its y's digit
    join_digits = bytearray(b"1") * lattice.size ** len(x)
    meet_digits = bytearray(join_digits)
    for pos, y in enumerate(itertools.product(range(lattice.size),
                                              repeat=len(x))):
        for mask, rest, i in subsets:
            xi, yi = x[i], y[i]
            y_meets[mask] = meet[y_meets[rest]][yi]
            y_joins[mask] = join[y_joins[rest]][yi]
            meet_of_joins[mask] = meet[meet_of_joins[rest]][join[xi][yi]]
            join_of_meets[mask] = join[join_of_meets[rest]][meet[xi][yi]]
            if meet_of_joins[mask] != join[x_meets[mask]][y_meets[mask]]:
                join_digits[pos] = 48  # ord("0")
            if join_of_meets[mask] != meet[x_joins[mask]][y_joins[mask]]:
                meet_digits[pos] = 48
    return int(join_digits[::-1], 2), int(meet_digits[::-1], 2)


def relation_region(lattice: Lattice, kind: RelationKind,
                    x: Sequence[int], limit: int = 10 ** 7) -> tuple:
    """All vectors y standing in the relation to x, in product order:
    the set bits of x's verdict row.  Pairwise kinds are enumerated in
    time proportional to the region."""
    x = check_vector(lattice, x)
    all_vectors(lattice, len(x), limit)  # raises past the limit
    row = _VerdictRows(lattice, len(x))(kind, x)
    return tuple(decode(pos, lattice.size, len(x)) for pos in _positions(row))
