"""Spans around the calls each package module makes into the layer below.

Tracing replaces, from the benchmark's side only, the public names bound
in the ``cli``, ``fileio``, ``recognizer``, ``axioms``, ``suites`` and
``bench`` namespaces with wrappers that record a span (name, start, end,
parent).  Spans live in flat arrays in memory and are written out once,
after the run.  Counters are read off the results the wrapped calls
return.  No file of the package changes.

The two per-point leaf calls, ``relation_check`` and single-point
``sugeno``, run up to a million times a round; they are summed per parent
span (calls, seconds) instead of being kept one by one, which keeps the
trace to megabytes.  They have no children, so no self time is lost.
"""

import json
import time
from array import array

# module -> the names bound in it that get wrapped; axiom_check spans are
# named after the axiom kind, as in "axiom_check:idempotent"
_PATCHES = {
    "cli": ("main", "build_lattice", "parse_table", "parse_capacity",
            "parse_vector", "format_table", "render_check_report",
            "render_recognition", "format_cost_report",
            "characterization_report", "sugeno_table", "sugeno",
            "run_bench", "recognize", "relation_check", "is_distributive",
            "run_scope"),
    "fileio": ("chain", "boolean_lattice", "product", "n5", "m3",
               "from_covers", "validate_capacity"),
    "recognizer": ("axiom_check", "sugeno", "validate_capacity",
                   "is_distributive", "recover_capacity"),
    "axioms": ("sugeno", "relation_check", "relation_pairs", "axiom_check"),
    "suites": ("characterization_report", "axiom_check",
               "enumerate_aggregations", "sample_aggregations",
               "sugeno_table", "enumerate_capacities", "sample_capacities",
               "is_distributive", "recognize", "relation_check",
               "suite_duality", "suite_four_equivalences",
               "suite_characterizations", "suite_chain_characterization",
               "suite_region_closure", "suite_lemmas"),
    "bench": ("axiom_check",),
}

_GENERATORS = {"enumerate_aggregations", "enumerate_capacities"}
_LEAVES = {"relation_check", "sugeno"}

_PAIR_KINDS = {"comonotone_supremal", "comonotone_infimal",
               "g_comonotone_supremal", "g_comonotone_infimal"}
_HOMOGENEITY_KINDS = {"idempotent", "inf_homogeneous", "sup_homogeneous",
                      "boolean_inf_homogeneous", "boolean_sup_homogeneous"}

_SUITES = {"suite_duality": "thm1", "suite_four_equivalences": "thm2",
           "suite_characterizations": "thm3",
           "suite_chain_characterization": "prop1",
           "suite_region_closure": "example1", "suite_lemmas": "lemmas"}

#: per-layer metric -> (unit, how it is derived)
#:   ("incl", names)  time of the outermost spans among ``names``
#:   ("self", names)  span time minus the time of its direct children
#:   ("count", key)   a counter
METRICS = {
    "lattice.build_ms": ("ms", "incl", ("chain", "boolean_lattice",
                                        "product", "n5", "m3",
                                        "from_covers")),
    "lattice.distributive_ms": ("ms", "incl", ("is_distributive",)),
    "fileio.parse_ms": ("ms", "incl", ("parse_table", "parse_capacity",
                                       "parse_vector")),
    "fileio.render_ms": ("ms", "incl", ("format_table",
                                        "render_check_report",
                                        "render_recognition",
                                        "format_cost_report")),
    "cli.self_ms": ("ms", "self", ("main",)),
    "relations.check_calls": ("count", "count", "relation_check.calls"),
    "relations.check_ms": ("ms", "self", ("relation_check",)),
    "relations.identities": ("count", "count", "relation_check.identities"),
    "axioms.relation_pairs_ms": ("ms", "incl", ("relation_pairs",)),
    "axioms.pair_axioms_ms": ("ms", "self", tuple(
        "axiom_check:" + k for k in sorted(_PAIR_KINDS))),
    "axioms.homogeneity_ms": ("ms", "incl", tuple(
        "axiom_check:" + k for k in sorted(_HOMOGENEITY_KINDS))),
    "axioms.gate_ms": ("ms", "incl", ("axiom_check:monotone_boundary",)),
    "axioms.report_ms": ("ms", "incl", ("characterization_report",)),
    "axioms.table_ms": ("ms", "incl", ("sugeno_table",)),
    "axioms.enumerate_ms": ("ms", "incl", ("enumerate_aggregations",)),
    "axioms.sample_ms": ("ms", "incl", ("sample_aggregations",)),
    "axioms.pairs_checked": ("count", "count", "axiom_check.pairs"),
    "capacity.sugeno_calls": ("count", "count", "sugeno.calls"),
    "capacity.sugeno_ms": ("ms", "incl", ("sugeno",)),
    "capacity.validate_ms": ("ms", "incl", ("validate_capacity",)),
    "capacity.sample_ms": ("ms", "incl", ("sample_capacities",)),
    "capacity.enumerate_ms": ("ms", "incl", ("enumerate_capacities",)),
    "recognizer.recognize_ms": ("ms", "incl", ("recognize",)),
    "recognizer.recover_ms": ("ms", "incl", ("recover_capacity",)),
    "recognizer.self_ms": ("ms", "self", ("recognize",)),
    "recognizer.verification_points": ("count", "count",
                                       "recognize.verification_points"),
    "bench.run_ms": ("ms", "incl", ("run_bench",)),
    "suites.cases": ("count", "count", "suite.cases"),
}
for _fn, _short in _SUITES.items():
    METRICS["suites.%s_ms" % _short] = ("ms", "incl", (_fn,))


class Tracer:
    """Span store plus counters; ``install`` patches the package."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}
        self.leaf = {}  # (parent span, name id) -> [calls, seconds]
        self.saved = []

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fname, fn):
        tracer = self
        if fname in _GENERATORS:
            nid = self._id(fname)

            def gen_wrapper(*args, **kwargs):
                return tracer._iterate(nid, fn(*args, **kwargs))
            return gen_wrapper

        if fname == "axiom_check":
            ids = {}

            def axiom_wrapper(f, kind, *args, **kwargs):
                nid = ids.get(kind)
                if nid is None:
                    nid = ids[kind] = tracer._id("axiom_check:" + kind.value)
                idx = tracer._open(nid)
                try:
                    res = fn(f, kind, *args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer._count("axiom_check.pairs", res.pairs_checked)
                return res
            return axiom_wrapper

        nid = self._id(fname)
        post = {
            "relation_check": lambda r: (
                tracer._count("relation_check.calls"),
                tracer._count("relation_check.identities",
                              r.identities_checked)),
            "sugeno": lambda r: tracer._count("sugeno.calls"),
            "recognize": lambda r: tracer._count(
                "recognize.verification_points", r.verification_points),
        }.get(fname)
        if fname in _SUITES:
            post = lambda r: tracer._count("suite.cases", r.cases)  # noqa

        if fname in _LEAVES:
            leaf, stack, clock = self.leaf, self.stack, time.perf_counter

            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    key = (stack[-1] if stack else -1, nid)
                    slot = leaf.get(key)
                    if slot is None:
                        leaf[key] = [1, elapsed]
                    else:
                        slot[0] += 1
                        slot[1] += elapsed
                post(res)
                return res
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(res)
            return res
        return wrapper

    def _iterate(self, nid, it):
        while True:
            idx = self._open(nid)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield value

    def install(self, package):
        for modname, fnames in _PATCHES.items():
            module = getattr(package, modname)
            for fname in fnames:
                fn = getattr(module, fname)
                self.saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(fname, fn))

    def uninstall(self):
        for module, fname, fn in reversed(self.saved):
            setattr(module, fname, fn)
        self.saved = []

    def metrics(self, ops):
        """Per-operation means of every per-layer metric."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        leaf_total = {}
        for (p, nid), (_, seconds) in self.leaf.items():
            if p >= 0:
                child[p] += seconds
            leaf_total[nid] = leaf_total.get(nid, 0.0) + seconds
        out = {}
        for metric, (unit, how, what) in METRICS.items():
            if how == "count":
                total = self.counters.get(what, 0)
            else:
                ids = {self.name_ids[n] for n in what if n in self.name_ids}
                total = sum(leaf_total.get(nid, 0.0) for nid in ids)
                for i in range(count):
                    if self.name[i] not in ids:
                        continue
                    if how == "self":
                        total += dur[i] - child[i]
                    elif not self._nested_in(i, ids):
                        total += dur[i]
                total *= 1000.0
            out[metric] = {"value": total / ops, "unit": unit}
        return out

    def _nested_in(self, i, ids):
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in ids:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """Spans as JSON lines: one header (span names, counters, and the
        leaf sums as [parent, name, calls, seconds]), then [name, start,
        end, parent] per span, times in seconds of ``time.perf_counter``
        and spans numbered from 0 in file order."""
        leaves = [[p, nid, calls, seconds]
                  for (p, nid), (calls, seconds) in sorted(self.leaf.items())]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "counters": self.counters,
                                     "leaves": leaves}) + "\n")
            for i in range(len(self.start)):
                handle.write("[%d,%.9f,%.9f,%d]\n"
                             % (self.name[i], self.start[i], self.end[i],
                                self.parent[i]))
