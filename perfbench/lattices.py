"""Reference lattices and integrals for the benchmark, apart from the package.

Lattice structure comes from ``tests/_oracles.py``, which builds meets and
joins by scanning an order predicate and shares no code with the package.
This module adds what the benchmark needs on top: the element names and
lattice names the package's text formats use, cover relations, and
whole-table integrals computed through the level-set form of the two
Sugeno forms,

    sup form:  f(x) = join over a in L of  a ^ m({i : x_i >= a})
    inf form:  f(x) = meet over a in L of  a v m({i : x_i not<= a})

which equal the literal subset formulas for every monotone capacity on any
bounded lattice and cost k*n per point instead of 2^n.  The self-test
compares them with ``_oracles.ref_sugeno_sup`` / ``ref_sugeno_inf``.
"""

import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import _oracles  # noqa: E402  (the repo's independent reference code)

_ATOM_LETTERS = "pqrstuvwxyz"


class RefSpec:
    """A lattice spec resolved against the reference code."""

    def __init__(self, spec, name, names, ref):
        self.spec = spec
        self.name = name          # lattice name used in file headers
        self.names = tuple(names)  # element index -> element name
        self.index = {e: i for i, e in enumerate(self.names)}
        self.L = ref
        self.k = ref.size
        self.leq_t = [[bool(ref.leq(a, b)) for b in range(self.k)]
                      for a in range(self.k)]
        self.meet_t = [[ref.meet(a, b) for b in range(self.k)]
                       for a in range(self.k)]
        self.join_t = [[ref.join(a, b) for b in range(self.k)]
                       for a in range(self.k)]
        self.upper = [[b for b in range(self.k)
                       if a != b and self.leq_t[a][b]
                       and not any(c not in (a, b) and self.leq_t[a][c]
                                   and self.leq_t[c][b]
                                   for c in range(self.k))]
                      for a in range(self.k)]
        self.lower = [[a for a in range(self.k) if b in self.upper[a]]
                      for b in range(self.k)]
        self.distributive = all(
            self.meet_t[x][self.join_t[y][z]]
            == self.join_t[self.meet_t[x][y]][self.meet_t[x][z]]
            for x in range(self.k) for y in range(self.k)
            for z in range(self.k))

    def fmt(self, x):
        return "(%s)" % ",".join(self.names[v] for v in x)

    def parse_vec(self, text):
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError("not a vector literal: %r" % text)
        return tuple(self.index[t.strip()] for t in body[1:-1].split(","))


def _resolve(spec):
    if spec.startswith("chain:"):
        k = int(spec[6:])
        return "chain%d" % k, [str(i) for i in range(k)], _oracles.ref_chain(k)
    if spec.startswith("boolean:"):
        m = int(spec[8:])
        full = (1 << m) - 1
        names = ["0" if s == 0 else "1" if s == full else
                 "".join(_ATOM_LETTERS[i] for i in range(m) if s >> i & 1)
                 for s in range(1 << m)]
        return "boolean%d" % m, names, _oracles.ref_boolean(m)
    if spec.startswith("prod:"):
        parts = [_resolve(p) for p in spec[5:].split("x")]
        names = [".".join(combo) for combo in
                 itertools.product(*(p[1] for p in parts))]
        return ("x".join(p[0] for p in parts), names,
                _oracles.ref_product([p[2] for p in parts]))
    if spec == "builtin:N5":
        return "N5", ["0", "a", "b", "c", "1"], _oracles.ref_n5()
    if spec == "builtin:M3":
        return "M3", ["0", "a", "b", "c", "1"], _oracles.ref_m3()
    raise ValueError("unsupported lattice spec %r" % spec)


_CACHE = {}


def ref_spec(spec):
    if spec not in _CACHE:
        _CACHE[spec] = RefSpec(spec, *_resolve(spec))
    return _CACHE[spec]


def points(R, n):
    return list(itertools.product(range(R.k), repeat=n))


def integral_table(R, n, cap, form):
    """Every value of the integral of ``cap`` (values by subset mask), in
    product order, by the level-set form."""
    leq, meet, join = R.leq_t, R.meet_t, R.join_t
    out = []
    if form == "sup":
        for x in itertools.product(range(R.k), repeat=n):
            acc = R.L.bottom
            for a in range(R.k):
                mask = 0
                for i in range(n):
                    if leq[a][x[i]]:
                        mask |= 1 << i
                acc = join[acc][meet[a][cap[mask]]]
            out.append(acc)
    else:
        for x in itertools.product(range(R.k), repeat=n):
            acc = R.L.top
            for a in range(R.k):
                mask = 0
                for i in range(n):
                    if not leq[x[i]][a]:
                        mask |= 1 << i
                acc = meet[acc][join[a][cap[mask]]]
            out.append(acc)
    return out


def oracle_integral(R, cap, x, form):
    fn = _oracles.ref_sugeno_sup if form == "sup" else _oracles.ref_sugeno_inf
    return fn(R.L, list(cap), x)


def char_vector(R, n, mask):
    return tuple(R.L.top if mask >> i & 1 else R.L.bottom for i in range(n))
