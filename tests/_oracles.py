"""Independent reference implementations used only by the tests.

Everything here is written straight from the defining identities with
no shared code or data structures with the package: orders are plain
predicates, meets and joins are found by scanning for bounds, and the
integral is evaluated by its literal double loop.  Deliberately slow.
"""

import itertools


class RefLattice:
    """Order given as a predicate over element indices 0..size-1."""

    def __init__(self, size, leq):
        self.size = size
        self.leq = leq
        self.meet_t = {}
        self.join_t = {}
        elems = range(size)
        for a in elems:
            for b in elems:
                lows = [c for c in elems if leq(c, a) and leq(c, b)]
                glb = [c for c in lows if all(leq(d, c) for d in lows)]
                ups = [c for c in elems if leq(a, c) and leq(b, c)]
                lub = [c for c in ups if all(leq(c, d) for d in ups)]
                assert len(glb) == 1 and len(lub) == 1, (a, b, glb, lub)
                self.meet_t[a, b] = glb[0]
                self.join_t[a, b] = lub[0]
        bots = [a for a in elems if all(leq(a, b) for b in elems)]
        tops = [a for a in elems if all(leq(b, a) for b in elems)]
        assert len(bots) == 1 and len(tops) == 1
        self.bottom, self.top = bots[0], tops[0]

    def meet(self, a, b):
        return self.meet_t[a, b]

    def join(self, a, b):
        return self.join_t[a, b]

    def meet_all(self, vals):
        out = self.top
        for v in vals:
            out = self.meet_t[out, v]
        return out

    def join_all(self, vals):
        out = self.bottom
        for v in vals:
            out = self.join_t[out, v]
        return out


def ref_chain(k):
    return RefLattice(k, lambda a, b: a <= b)


def ref_boolean(m):
    # index order matches the package: subset bitmask over the atoms
    return RefLattice(2 ** m, lambda a, b: a & b == a)


# element order [0, a, b, c, 1] in both presets, as in the package
_N5_LE = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
          (0, 1), (0, 2), (0, 3), (0, 4),
          (1, 4), (2, 4), (3, 4), (1, 2)}
_M3_LE = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
          (0, 1), (0, 2), (0, 3), (0, 4),
          (1, 4), (2, 4), (3, 4)}


def ref_n5():
    return RefLattice(5, lambda a, b: (a, b) in _N5_LE)


def ref_m3():
    return RefLattice(5, lambda a, b: (a, b) in _M3_LE)


def ref_product(factors):
    combos = list(itertools.product(*(range(f.size) for f in factors)))

    def leq(a, b):
        return all(f.leq(x, y)
                   for f, x, y in zip(factors, combos[a], combos[b]))

    return RefLattice(len(combos), leq)


# -- relations, straight from the definitions ---------------------------


def ref_comonotone(L, x, y):
    n = len(x)
    for i in range(n):
        for j in range(n):
            if not ((L.leq(x[i], x[j]) and L.leq(y[i], y[j])) or
                    (L.leq(x[j], x[i]) and L.leq(y[j], y[i]))):
                return False
    return True


def ref_comparable(L, x, y):
    return (all(L.leq(a, b) for a, b in zip(x, y)) or
            all(L.leq(b, a) for a, b in zip(x, y)))


def ref_g_com(L, x, y):
    n = len(x)
    for i in range(n):
        for j in range(n):
            lhs = L.meet(L.join(x[i], y[i]), L.join(x[j], y[j]))
            rhs = L.join(L.meet(x[i], x[j]), L.meet(y[i], y[j]))
            if lhs != rhs:
                return False
    return True


def ref_dual_g_com(L, x, y):
    n = len(x)
    for i in range(n):
        for j in range(n):
            lhs = L.join(L.meet(x[i], y[i]), L.meet(x[j], y[j]))
            rhs = L.meet(L.join(x[i], x[j]), L.join(y[i], y[j]))
            if lhs != rhs:
                return False
    return True


def ref_subsetwise_join(L, x, y):
    n = len(x)
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        lhs = L.meet_all([L.join(x[i], y[i]) for i in idx])
        rhs = L.join(L.meet_all([x[i] for i in idx]),
                     L.meet_all([y[i] for i in idx]))
        if lhs != rhs:
            return False
    return True


def ref_subsetwise_meet(L, x, y):
    n = len(x)
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        lhs = L.join_all([L.meet(x[i], y[i]) for i in idx])
        rhs = L.meet(L.join_all([x[i] for i in idx]),
                     L.join_all([y[i] for i in idx]))
        if lhs != rhs:
            return False
    return True


def ref_comonotone_by_sorting(x, y):
    """Chain-style characterization: some permutation sorts both
    vectors nondecreasingly at once.  Only meaningful when coordinates
    are totally ordered integers (chains)."""
    n = len(x)
    for perm in itertools.permutations(range(n)):
        xs = [x[i] for i in perm]
        ys = [y[i] for i in perm]
        if (all(xs[i] <= xs[i + 1] for i in range(n - 1)) and
                all(ys[i] <= ys[i + 1] for i in range(n - 1))):
            return True
    return False


# -- integral and capacities --------------------------------------------


def ref_sugeno_sup(L, values, x):
    """values indexed by subset bitmask; literal sup-of-meets."""
    n = len(x)
    out = L.bottom
    for mask in range(2 ** n):
        term = L.meet_all([x[i] for i in range(n) if mask >> i & 1])
        out = L.join(out, L.meet(values[mask], term))
    return out


def ref_sugeno_inf(L, values, x):
    n = len(x)
    full = 2 ** n - 1
    out = L.top
    for mask in range(2 ** n):
        term = L.join_all([x[i] for i in range(n) if mask >> i & 1])
        out = L.meet(out, L.join(values[full ^ mask], term))
    return out


def ref_capacities(L, n):
    """Brute force: every subset table passing the capacity laws."""
    size = 2 ** n
    out = []
    for combo in itertools.product(range(L.size), repeat=size):
        if combo[0] != L.bottom or combo[size - 1] != L.top:
            continue
        ok = True
        for small in range(size):
            for big in range(size):
                if small & big == small and not L.leq(combo[small],
                                                      combo[big]):
                    ok = False
        if ok:
            out.append(combo)
    return out


def ref_aggregations(L, n):
    """Brute force over all |L|^(|L|^n) tables; tiny domains only."""
    points = list(itertools.product(range(L.size), repeat=n))
    out = []
    for combo in itertools.product(range(L.size), repeat=len(points)):
        table = dict(zip(points, combo))
        if table[(L.bottom,) * n] != L.bottom:
            continue
        if table[(L.top,) * n] != L.top:
            continue
        ok = True
        for p in points:
            for q in points:
                if all(L.leq(a, b) for a, b in zip(p, q)):
                    if not L.leq(table[p], table[q]):
                        ok = False
        if ok:
            out.append(combo)
    return out


# -- axiom predicates from the definitions ------------------------------


def ref_monotone_boundary(L, n, table):
    """Whether the table (dict vector -> element) is monotone over every
    comparable pair of points and maps the all-bottom and all-top points
    to bottom and top."""
    points = list(itertools.product(range(L.size), repeat=n))
    monotone = all(
        L.leq(table[p], table[q])
        for p in points for q in points
        if all(L.leq(a, b) for a, b in zip(p, q)))
    return (monotone and table[(L.bottom,) * n] == L.bottom
            and table[(L.top,) * n] == L.top)


def ref_axioms(L, n, table):
    """table: dict vector -> element.  Returns dict of the ten verdicts."""
    points = list(itertools.product(range(L.size), repeat=n))
    consts = range(L.size)

    def hom(op, domain):
        return all(table[tuple(op(c, v) for v in x)] == op(c, table[x])
                   for c in consts for x in domain)

    cube = list(itertools.product((L.bottom, L.top), repeat=n))

    def quantified(rel, op):
        for x in points:
            for y in points:
                if rel(L, x, y):
                    combined = tuple(op(a, b) for a, b in zip(x, y))
                    if table[combined] != op(table[x], table[y]):
                        return False
        return True

    return {
        "monotone_boundary": ref_monotone_boundary(L, n, table),
        "idempotent": all(table[(c,) * n] == c for c in consts),
        "inf_homogeneous": hom(L.meet, points),
        "sup_homogeneous": hom(L.join, points),
        "boolean_inf_homogeneous": hom(L.meet, cube),
        "boolean_sup_homogeneous": hom(L.join, cube),
        "comonotone_supremal": quantified(ref_comonotone, L.join),
        "comonotone_infimal": quantified(ref_comonotone, L.meet),
        "g_comonotone_supremal": quantified(ref_g_com, L.join),
        "g_comonotone_infimal": quantified(ref_g_com, L.meet),
    }


# -- distributivity via forbidden sublattices ---------------------------


def ref_has_n5_or_m3(L):
    """Scan all 5-subsets closed under meet and join for the two
    minimal non-distributive shapes."""
    elems = range(L.size)
    for sub in itertools.combinations(elems, 5):
        inside = set(sub)
        if any(L.meet(a, b) not in inside or L.join(a, b) not in inside
               for a in sub for b in sub):
            continue
        lows = [a for a in sub if all(L.leq(a, b) for b in sub)]
        tops = [a for a in sub if all(L.leq(b, a) for b in sub)]
        if len(lows) != 1 or len(tops) != 1:
            continue
        mids = [a for a in sub if a != lows[0] and a != tops[0]]
        rels = sum(1 for a in mids for b in mids
                   if a != b and L.leq(a, b))
        # three middle elements: pairwise incomparable is the diamond,
        # exactly one strict comparability is the pentagon
        if rels in (0, 1):
            return True
    return False
