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

These four share fold_I(pair(x_i, y_i)) == pair(fold_I x, fold_I y).
``_pair_test`` resolves every kind but comparable, once per check,
letter table or region, to its fold, its pair and one test of two
letters: the order test for comonotone, that identity on two letters
for the other four.  The subsetwise identity is decided by ``_extend``, which grows
the closure of (fold_I x, fold_I y) pairs, at most k^2 of them, one
letter at a time, testing the new letter against each pair.  Whether
g-comonotone and its dual (``_dual_agrees``), and with them the
subsetwise kinds (``_four_kinds_agree``), agree on every pair of an
arity is decided on letters alone: the g and dual letter tables, and
the closures of the cliques of the g table.

Checks short-circuit on the first failing identity and report it as a
witness, along with how many identities were evaluated.  Questions over
the whole domain read the positions of related y, ascending, in product
order.  For every anchor at once, the pairwise kinds have one walker,
``related_positions``.  It walks the trie of anchor prefixes depth
first, on an explicit stack of digit iterators, so no arity meets
Python's recursion limit.  For each anchor prefix it grows, once, the
frontier of y prefixes related to it, and each next anchor digit
extends that frontier.  It yields the related y of every anchor in
product order, with the positions of x v y and x ^ y and the count of
pairs walked so far; the pair plans of ``axioms`` read it, y from x on.
For one anchor, ``_related`` gives every kind (regions, related pairs,
failing ranks and suite witnesses read it): comparable from the order
rows, every other kind through its letter automaton (``_letter_steps``),
whose state after a prefix of letters is the compatible-letter mask of
a pairwise kind or the fold closure of a subsetwise one.  With x free,
``_pair_count`` counts a letter table's related pairs over those masks.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import eq
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
    """One relation_check verdict and its first witness.
    ``identities_checked`` counts the coordinate pairs i < j evaluated
    for a pairwise kind, and the coordinates probed for comparable, up
    to the first failure; for a subsetwise kind it is the first failing
    mask, or 2^n - 1 on a pass, a place in the order of masks and not
    the O(n * k^2) identity tests done."""

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


def _pair_test(lattice: Lattice, kind: RelationKind) -> tuple:
    """(fold, pair, test) of every kind but comparable, on the letters
    (a, b) and (c, d): ``test(a, b, c, d)`` is whether both are ordered
    the same way, for comonotone (fold and pair None), or
    fold(pair(a, b), pair(c, d)) ==
    pair(fold(a, c), fold(b, d)), with (fold, pair) = (meet, join) for
    g-comonotone and subsetwise join agreement, (join, meet) for the dual
    and subsetwise meet agreement.  A letter is the (x_i, y_i) of one
    coordinate or, for a subsetwise kind, the (fold_I x, fold_I y) of a
    holding subset."""
    if kind is RelationKind.COMONOTONE:
        up = lattice._up

        def test(a, b, c, d):
            return bool((up[a] >> c & 1 and up[b] >> d & 1) or
                        (up[c] >> a & 1 and up[d] >> b & 1))
        return None, None, test
    if kind in (RelationKind.G_COMONOTONE, RelationKind.SUBSETWISE_JOIN):
        fold, pair = lattice._meet, lattice._join
    elif kind in (RelationKind.DUAL_G_COMONOTONE,
                  RelationKind.SUBSETWISE_MEET):
        fold, pair = lattice._join, lattice._meet
    else:
        raise ValueError("not a kind of two letters: %r" % (kind,))

    def test(a, b, c, d):
        return fold[pair[a][b]][pair[c][d]] == pair[fold[a][c]][fold[b][d]]
    return fold, pair, test


def relation_check(lattice: Lattice, kind: RelationKind,
                   x: Sequence[int], y: Sequence[int],
                   limit: int = 10 ** 7) -> RelationResult:
    """Test one relation, reporting the first failing identity if any.

    For pairwise kinds the witness is the coordinate pair (i, j); the
    diagonal identities hold trivially so only i < j is evaluated.  For
    the comparable relation the witness pairs the first coordinate
    breaking each direction.  For subsetwise kinds it is the first
    failing subset in increasing mask order, as a tuple of coordinate
    positions, and the identity count is that mask, 2^n - 1 on a pass.
    One closure of (fold x, fold y) pairs is carried along the
    coordinates by ``_extend``, so the work is O(n * k^2) whatever the
    count.  More than ``limit`` coordinate pairs are refused up front,
    for every kind but comparable.
    """
    x = check_vector(lattice, x)
    y = check_vector(lattice, y)
    if len(x) != len(y):
        raise ArityMismatch("vectors have %d and %d coordinates"
                            % (len(x), len(y)))
    n = len(x)
    if kind is not RelationKind.COMPARABLE:
        guard_size(n * (n - 1) // 2, 1, "coordinate pairs", limit)
    checked = 0

    if kind in PAIRWISE_KINDS:
        test = _pair_test(lattice, kind)[2]
        for i in range(n):
            for j in range(i + 1, n):
                checked += 1
                if not test(x[i], y[i], x[j], y[j]):
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

    # subsetwise kinds: every mask with top bit j comes after those below
    # j, so the first failure's top bit is the first coordinate whose
    # letter fails against the closure of the letters before it
    fold, _, test = _pair_test(lattice, kind)
    closure = {}  # (fold x, fold y) -> the first coordinate producing it
    for j, (a, b) in enumerate(zip(x, y)):
        grown = _extend(fold, test, closure.keys(), a, b)
        if grown is None:
            break
        for folds in grown:
            closure.setdefault(folds, j)
    else:
        return RelationResult(kind, True, None, (1 << n) - 1)
    # then the lowest such mask, bit by bit from j - 1 down: bit i stays
    # off when the forced letters still fail, folded alone or with a
    # pair of the closure of the letters before i, which is the prefix
    # of ``closure`` born before i; fx, fy start at the fold's unit
    mask = 1 << j
    fx = fy = lattice.top if fold is lattice._meet else lattice.bottom
    for i in range(j - 1, -1, -1):
        fails = not test(a, b, fx, fy)
        for (c, d), born in closure.items():
            if fails or born >= i:
                break
            fails = not test(a, b, fold[fx][c], fold[fy][d])
        if not fails:
            mask |= 1 << i
            fx, fy = fold[fx][x[i]], fold[fy][y[i]]
    witness = tuple(c for c in range(n) if mask >> c & 1)
    return RelationResult(kind, False, witness, mask)


def _extend(fold, test, closure, a: int, b: int):
    """The closure of a word whose subsets all hold, with letter (a, b)
    added, or None if a subset containing (a, b) fails.

    The closure is the set of (fold_I x, fold_I y) over the word's
    nonempty coordinate subsets I, at most k^2 pairs.  A subset with the
    new letter is the letter alone, which always holds, or the letter
    with a subset of the word, known by its pair (c, d): while a subset
    holds, the fold of its pairs is the pair of its folds, so the two
    hold together when the kind's ``test(a, b, c, d)`` does.
    """
    grown = {(a, b)}
    for c, d in closure:
        if not test(a, b, c, d):
            return None
        grown.add((fold[a][c], fold[b][d]))
    return closure | grown


def _dual_agrees(lattice: Lattice, n: int) -> bool:
    """Whether g-comonotone and its dual relate exactly the same vector
    pairs at arity n: at n = 1 every pair is one letter, related by both,
    and beyond, a pair of two letters tells the kinds apart wherever
    their letter tables do."""
    return n == 1 or (compatibility_table(lattice, RelationKind.G_COMONOTONE)
                      == compatibility_table(lattice,
                                             RelationKind.DUAL_G_COMONOTONE))


def _four_kinds_agree(lattice: Lattice, n: int) -> bool:
    """Whether g-comonotone, its dual and the two subsetwise kinds relate
    exactly the same vector pairs at arity n.

    Each verdict depends only on the set of letters (x_i, y_i) a pair
    uses, and at arity n every set of at most n letters is used by some
    pair.  A set is g-related (dual-related) when it is a clique of the
    kind's letter table, and a subsetwise kind holds only on a g-clique,
    since every two of the set's letters must hold.  On two letters the
    subsetwise-join test is the g test and the subsetwise-meet test the
    dual one.  So the four agree at n = 1 always, and at n >= 2 exactly
    when the g and dual tables are equal and every clique of 3 to n
    letters holds for both subsetwise kinds.  Cliques are searched depth
    first in increasing letter order, each child costing one ``_extend``
    per subsetwise kind on its parent's closures.
    """
    if not _dual_agrees(lattice, n):
        return False
    if n <= 2:
        return True
    table = compatibility_table(lattice, RelationKind.G_COMONOTONE)
    k = lattice.size
    join_fold, _, join_test = _pair_test(lattice, RelationKind.SUBSETWISE_JOIN)
    meet_fold, _, meet_test = _pair_test(lattice, RelationKind.SUBSETWISE_MEET)
    # per clique on the path: the letters that may extend it, ascending,
    # and its closures for the two kinds; the root is the empty clique
    every = (1 << k * k) - 1
    stack = [(_positions(every), every, frozenset(), frozenset())]
    while stack:
        todo, allowed, joins, meets = stack[-1]
        letter = next(todo, None)
        if letter is None:
            stack.pop()
            continue
        a, b = divmod(letter, k)
        joins = _extend(join_fold, join_test, joins, a, b)
        meets = _extend(meet_fold, meet_test, meets, a, b)
        if joins is None or meets is None:
            return False
        if len(stack) < n:
            rest = allowed & table[letter] >> letter + 1 << letter + 1
            if rest:
                stack.append((_positions(rest), rest, joins, meets))
    return True


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


#: a byte 1 as "1" and 0 as "0", for reading bytes as binary digits
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def compatibility_table(lattice: Lattice, kind: RelationKind) -> list:
    """Letter compatibility of a pairwise kind, as k^2 bitsets.

    A vector pair (x, y) is a word of letters (x_i, y_i); letter (c, d)
    is bit c * k + d.  Entry ``[a * k + b]`` has bit c * k + d set when
    letters (a, b) and (c, d), at two coordinates in either order,
    satisfy the kind's identity; (x, y) is related exactly when every
    two of its letters are compatible.  The comonotone table is read off
    the up- and down-sets in O(k^3); the others evaluate the identity on
    all k^2 letters of a row at once, as byte strings built from the
    meet and join tables.  More than 10^7 letter pairs are refused up
    front.  Each table is built once per lattice and kind and kept on
    the lattice.
    """
    table = lattice._letter_tables.get(kind)
    if table is not None:
        return table
    guard_size(lattice.size, 4, "letter pairs")
    k = lattice.size
    if kind is RelationKind.COMONOTONE:
        # (c, d) above (a, b) in both places, or below in both: the k-bit
        # row up[b] (down[b]) in the slot of each c above (below) a, all
        # copied by one product with a mask of one bit per such slot
        up, down = lattice._up, lattice._down
        slots = [[sum(1 << c * k for c in _positions(rows[a]))
                  for a in range(k)] for rows in (up, down)]
        table = [slots[0][a] * up[b] | slots[1][a] * down[b]
                 for a in range(k) for b in range(k)]
    else:
        # row by row: letter (c, d) fits (a, b) when fold[p][pair[c][d]],
        # p = pair[a][b], equals pair[fold[a][c]][fold[b][d]]; both sides
        # of a row are k^2 bytes in letter order, translated from rows of
        # the two tables, and compared byte by byte.  The guard above
        # keeps k <= 56, so every element is one byte.
        fold, pair, _ = _pair_test(lattice, kind)
        pad = bytes(256 - k)
        fold_maps = [bytes(row) + pad for row in fold]
        pair_maps = [bytes(row) + pad for row in pair]
        letters = b"".join(map(bytes, pair))
        table = [0] * (k * k)
        for b in range(k):
            fold_b = bytes(fold[b])
            # pair[u][fold[b][d]] over d, for every u = fold[a][c]
            rights = [fold_b.translate(m) for m in pair_maps]
            for a in range(k):
                left = letters.translate(fold_maps[pair[a][b]])
                right = b"".join([rights[u] for u in fold[a]])
                table[a * k + b] = int(bytes(map(eq, left, right))
                                       .translate(_BITS)[::-1], 2)
    lattice._letter_tables[kind] = table
    return table


def _pair_count(table: list, n: int) -> int:
    """The number of arity-n vector pairs whose every two letters,
    equal ones included, are compatible in ``table``, a list of k^2
    letter bitsets like compatibility_table's.

    A dynamic program over the compatible-letter masks: the ways of
    reaching each mask, one level per coordinate.  A letter in the mask
    may come next, and leaves the mask ANDed with its row; the last
    coordinate takes any letter of the mask, so the last level is summed
    by the masks' bit counts rather than stepped.
    """
    ways = {(1 << len(table)) - 1: 1}
    for _ in range(n - 1):
        grown = {}
        for letters, count in ways.items():
            for letter in _positions(letters):
                after = letters & table[letter]
                grown[after] = grown.get(after, 0) + count
        ways = grown
    return sum(letters.bit_count() * count for letters, count in ways.items())


def related_positions(lattice: Lattice, kind: RelationKind, n: int,
                      ordered: bool = False) -> Iterator[tuple]:
    """The related pairs of a pairwise kind at arity n, anchor by anchor,
    as ``(a, ys, joins, meets, seen)``: the position a of an anchor x,
    three lists, the positions of the y related to x in increasing
    order, of x v y and of x ^ y, then the count of pairs walked so far.

    Every anchor comes in product order, each with the y from x itself
    on (x lex <= y), and the pairs with x <= y, on which every monotone f
    meets both identities, are counted but not emitted unless
    ``ordered`` is set.

    The walk runs depth first over the trie of anchor prefixes.  An
    anchor prefix's frontier holds the y prefixes related to it, each
    carrying the set of letters compatible with all of its own
    (compatibility_table), so only prefixes of related vectors are
    visited.  The frontier is grown once per anchor prefix, and each
    next anchor digit v extends it by the digits d of the letters
    (v, d) the set allows.  Under a tie, a y prefix equal to the anchor
    prefix keeps only d >= v.  The positions of x v y and x ^ y grow
    digit by digit alongside, so nothing is decoded.
    """
    table = compatibility_table(lattice, kind)
    k, join, meet = lattice.size, lattice._join, lattice._meet
    skip = not ordered
    keep = [~up for up in lattice._up]
    digits = (1 << k) - 1

    def walk():
        # per anchor prefix on the path: (position, frontier, digits left);
        # per y prefix, increasing, a frontier holds (positions of y, x v y
        # and x ^ y, compatible letters), the one at the anchor prefix's
        # own position tied to it
        stack = [(0, [(0, 0, 0, (1 << k * k) - 1)], iter(range(k)))]
        seen = 0
        while stack:
            prefix, frontier, todo = stack[-1]
            if len(stack) == n:
                stack.pop()
                for v in todo:
                    shift = v * k
                    join_v, meet_v, keep_v = join[v], meet[v], keep[v]
                    ys, joins, meets = [], [], []
                    for pos, pos_join, pos_meet, letters in frontier:
                        allowed = letters >> shift & digits
                        if pos == prefix:
                            allowed = allowed >> v << v
                        seen += allowed.bit_count()
                        if skip and pos_join == pos:  # y above x so far
                            allowed &= keep_v  # d above v: x <= y
                        base, base_join, base_meet = (pos * k, pos_join * k,
                                                      pos_meet * k)
                        while allowed:
                            low = allowed & -allowed
                            allowed ^= low
                            d = low.bit_length() - 1
                            ys.append(base + d)
                            joins.append(base_join + join_v[d])
                            meets.append(base_meet + meet_v[d])
                    yield prefix * k + v, ys, joins, meets, seen
                continue
            v = next(todo, None)
            if v is None:
                stack.pop()
                continue
            shift = v * k
            join_v, meet_v = join[v], meet[v]
            entries = table[shift:shift + k]
            grown = []
            for pos, pos_join, pos_meet, letters in frontier:
                allowed = letters >> shift & digits
                if pos == prefix:
                    allowed = allowed >> v << v
                base, base_join, base_meet = (pos * k, pos_join * k,
                                              pos_meet * k)
                while allowed:
                    low = allowed & -allowed
                    allowed ^= low
                    d = low.bit_length() - 1
                    grown.append((base + d, base_join + join_v[d],
                                  base_meet + meet_v[d],
                                  letters & entries[d]))
            stack.append((prefix * k + v, grown, iter(range(k))))

    return walk()


def strides(k: int, n: int) -> list:
    """Place values of the n coordinates over k elements: strides[i] =
    k^(n-1-i) positions separate x from x with x_i raised by one, so
    ``encode(x, k)`` is the sum of x_i * strides[i]."""
    return [k ** (n - 1 - i) for i in range(n)]


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


def _order_rows(lattice: Lattice, x: tuple) -> tuple:
    """(below, above): the bitmasks over the k^n positions (product
    order) of the y with y <= x and with y >= x coordinatewise.

    Each row is built as a string of binary digits, position 0 first,
    one coordinate at a time from the last: the digits so far are
    repeated for each value of the new coordinate that lies below
    (above) x's, and zeros stand for the others, so the work is linear
    in the k^n positions.
    """
    up = lattice._up
    below = above = b"1"
    for v in reversed(x):
        zeros = b"0" * len(below)
        below = b"".join([below if up[u] >> v & 1 else zeros
                          for u in range(lattice.size)])
        above = b"".join([above if up[v] >> u & 1 else zeros
                          for u in range(lattice.size)])
    return int(below[::-1], 2), int(above[::-1], 2)


def _positions(row: int) -> Iterator[int]:
    """The set bits of a bitmask in increasing order, found in one scan
    of its binary digits."""
    bits = bin(row)[:1:-1]
    pos = bits.find("1")
    while pos >= 0:
        yield pos
        pos = bits.find("1", pos + 1)


def _letter_steps(lattice: Lattice, kind: RelationKind) -> tuple:
    """(start, step) of the letter automaton of every kind but
    comparable: ``step(state, v)`` lists, ascending, the digits d whose
    letter (v, d) the state accepts, each with its next state, and the
    words the automaton reads from ``start`` are the related pairs.

    A pairwise state is the set of letters compatible with every letter
    read so far, as compatibility_table's k^2-bit mask; d is accepted
    when (v, d) is in it, and the next state is the mask ANDed with
    (v, d)'s row.  A subsetwise state is the closure of the letters read
    (``_extend``), which (v, d) must grow without a failing subset.
    Subsetwise steps are kept on the lattice per kind and per (closure,
    v), shared by every anchor and arity; pairwise steps cost a few bit
    operations and are computed afresh.
    """
    k = lattice.size
    if kind in PAIRWISE_KINDS:
        table = compatibility_table(lattice, kind)
        digits = (1 << k) - 1

        def step(letters, v):
            allowed = letters >> v * k & digits
            after = []
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                d = low.bit_length() - 1
                after.append((d, letters & table[v * k + d]))
            return after
        return (1 << k * k) - 1, step
    fold, _, test = _pair_test(lattice, kind)
    steps = lattice._letter_tables.setdefault(kind, {})

    def step(closure, v):
        after = steps.get((closure, v))
        if after is None:
            after = steps[closure, v] = [
                (d, grown) for d in range(k)
                if (grown := _extend(fold, test, closure, v, d)) is not None]
        return after
    return frozenset(), step


def _related(lattice: Lattice, kind: RelationKind, x: tuple) -> Sequence:
    """The positions of the y that x is related to, in product order,
    grown in time proportional to the region for every kind but
    comparable.

    Comparable reads the set bits of x's two order rows.  Every other
    kind grows a frontier of (y prefix position, state) pairs through
    its letter automaton (``_letter_steps``), one digit v of x at a
    time; the prefixes left after the last digit are the region.
    """
    if kind is RelationKind.COMPARABLE:
        below, above = _order_rows(lattice, x)
        return list(_positions(below | above))
    k = lattice.size
    start, step = _letter_steps(lattice, kind)
    frontier = [(0, start)]
    for v in x:
        frontier = [(pos * k + d, after) for pos, state in frontier
                    for d, after in step(state, v)]
    return [pos for pos, _ in frontier]


def relation_region(lattice: Lattice, kind: RelationKind,
                    x: Sequence[int], limit: int = 10 ** 7) -> tuple:
    """All vectors y standing in the relation to x, in product order:
    the positions ``_related`` gives, decoded.  More than ``limit``
    vectors are refused up front, and for the subsetwise kinds more than
    ``limit`` vector-subset identities, (2k)^n, as well: a tighter cap on
    the size of the region, which is returned in full, so that the
    subsetwise kinds stop short of the millions of vectors at which a
    pairwise region admitted by the first cap already takes gigabytes."""
    x = check_vector(lattice, x)
    guard_size(lattice.size, len(x), "vectors", limit)
    if kind in (RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET):
        guard_size(2 * lattice.size, len(x), "vector-subset identities",
                   limit)
    return tuple(decode(pos, lattice.size, len(x))
                 for pos in _related(lattice, kind, x))
