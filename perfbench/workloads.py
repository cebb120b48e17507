"""The three workloads: their lattices, their seeded inputs, their operations.

The seed fixes the content of every input (capacity values, perturbed
points, suite seeds); the shape of a round (which commands on which
lattices, in which order) is the same for every seed, so that the cost of
a round barely moves with the seed.  Input files are written by this
module from the reference lattices, never by the package under test.
"""

import os
import random

from lattices import char_vector, integral_table, points, ref_spec

#: (spec, arity, seeded capacities): domains of 125-256 points, where
#: relation-pair enumeration and the pair-walking axiom checks do the
#: work.  The product of chains gets two capacities so that the median
#: operation falls inside its cost band, between the cheaper N5/M3
#: operations and the dearer chain:6 / boolean:2 ones.
AXIOM_REPORT = (
    ("builtin:N5", 3, 1), ("builtin:M3", 3, 1),
    ("prod:chain:2xchain:3", 3, 2), ("chain:6", 3, 1), ("boolean:2", 4, 1),
)

#: (spec, arity): domains of 2187-14641 points at arity 4-7, where
#: tabulation, the recognizer's two-form re-check and table parsing work.
#: The non-integral tables are step tables: both methods refuse them
#: within the first few identities, at a cost that does not move with
#: the seed, so that the seed moves no operation across the median.
TABULATE_RECOGNIZE = (
    ("chain:11", 4), ("chain:6", 5), ("chain:4", 6), ("boolean:2", 6),
    ("chain:3", 7), ("prod:chain:2xchain:3", 5), ("builtin:N5", 5),
)

#: (spec, arity, runs per round, seeded): theorem-suite all.  The
#: Boolean lattice, whose suites cost least per seed, holds the median.
THEOREM_SUITES = (
    ("boolean:2", 3, 5, True),
    ("chain:4", 3, 2, True),
    # fails today (lemmas FAIL on a non-distributive lattice); its input
    # does not depend on the seed, so it fails in every run
    ("builtin:N5", 3, 1, False),
    # the thm3 census and prop1 run only here; thm3 FAIL is the correct
    # outcome (the census disagreement of acceptance criterion 5)
    ("chain:3", 2, 2, True),
)

WORKLOADS = ("axiom-report", "tabulate-recognize", "theorem-suites")


def lattice_specs(workload):
    table = {"axiom-report": AXIOM_REPORT,
             "tabulate-recognize": TABULATE_RECOGNIZE,
             "theorem-suites": THEOREM_SUITES}[workload]
    return sorted({row[0] for row in table})


# -- seeded inputs -------------------------------------------------------


def random_capacity(R, n, rng):
    """Monotone subset values, drawn mask by mask above the join of the
    already-fixed lower covers; empty set at bottom, full set at top."""
    size = 1 << n
    cap = [R.L.bottom] * size
    cap[size - 1] = R.L.top
    for mask in range(1, size - 1):
        floor = R.L.bottom
        for i in range(n):
            if mask >> i & 1:
                floor = R.join_t[floor][cap[mask & ~(1 << i)]]
        cap[mask] = rng.choice([v for v in range(R.k) if R.leq_t[floor][v]])
    return cap


def step_table(R, table):
    """The table composed with the step map (bottom stays, all else goes
    to top): monotone with the right boundary, never idempotent when the
    lattice has more than two elements, so never an integral."""
    return [v if v == R.L.bottom else R.L.top for v in table]


def point_table(R, n, table, rng):
    """The table with one value moved inside the interval that its cover
    neighbours allow, at a seeded point off the {bottom, top} cube; the
    result stays an aggregation function but leaves the integral of its
    own characteristic-vector capacity."""
    pts = points(R, n)
    pos = {x: i for i, x in enumerate(pts)}
    cube = {char_vector(R, n, mask) for mask in range(1 << n)}
    choices = []
    for x in pts:
        if x in cube:
            continue
        lo, hi = R.L.bottom, R.L.top
        for i in range(n):
            for c in R.lower[x[i]]:
                lo = R.join_t[lo][table[pos[x[:i] + (c,) + x[i + 1:]]]]
            for c in R.upper[x[i]]:
                hi = R.meet_t[hi][table[pos[x[:i] + (c,) + x[i + 1:]]]]
        here = table[pos[x]]
        cands = [v for v in range(R.k) if v != here
                 and R.leq_t[lo][v] and R.leq_t[v][hi]]
        if cands:
            choices.append((pos[x], cands))
    where, cands = rng.choice(choices)
    out = list(table)
    out[where] = rng.choice(cands)
    return out


def capacity_text(R, n, name, cap):
    lines = ["capacity %s over %s arity %d" % (name, R.name, n)]
    for mask in range(1 << n):
        members = ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
        lines.append("{%s} -> %s" % (members, R.names[cap[mask]]))
    return "\n".join(lines) + "\n"


def table_text(R, n, name, table):
    lines = ["table %s over %s arity %d" % (name, R.name, n)]
    for x, v in zip(points(R, n), table):
        lines.append("%s -> %s" % (R.fmt(x), R.names[v]))
    return "\n".join(lines) + "\n"


class Inputs:
    """Writes input files under ``workdir`` and collects operations in
    groups; ``ops`` interleaves the groups round-robin so that every kind
    of operation is spread over the whole round (and over whatever the
    machine does meanwhile)."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.groups = []
        self.files = 0

    def write(self, text, ext):
        self.files += 1
        path = os.path.join(self.workdir, "in%03d.%s" % (self.files, ext))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def group(self):
        self.groups.append([])

    def op(self, kind, argv, **meta):
        self.groups[-1].append({"kind": kind, "argv": argv, "meta": meta})

    def ops(self):
        out = []
        for step in range(max(len(g) for g in self.groups)):
            for g in self.groups:
                if step < len(g):
                    out.append(dict(g[step], id=len(out)))
        return out


def _axiom_group(inp, spec, n, rng):
    """axioms on an integral, a step and a point table of one seeded
    capacity; bench on the integral and the point table."""
    inp.group()
    R = ref_spec(spec)
    base = integral_table(R, n, random_capacity(R, n, rng), "sup")
    tables = {"integral": base, "step": step_table(R, base),
              "point": point_table(R, n, base, rng)}
    paths = {label: inp.write(table_text(R, n, "t" + label, values), "tbl")
             for label, values in tables.items()}
    for command, labels in (("axioms", ("integral", "step", "point")),
                            ("bench", ("integral", "point"))):
        for label in labels:
            inp.op(command, [command, "--lattice", spec, "--table",
                             paths[label]],
                   spec=spec, n=n, table=tables[label], label=label)


def build(workload, seed, workdir):
    """Generate the inputs of one workload; return the op list."""
    rng = random.Random("%s:%d" % (workload, seed))
    inp = Inputs(workdir)
    if workload == "axiom-report":
        for spec, n, copies in AXIOM_REPORT:
            for _ in range(copies):
                _axiom_group(inp, spec, n, rng)
    elif workload == "tabulate-recognize":
        for spec, n in TABULATE_RECOGNIZE:
            inp.group()
            R = ref_spec(spec)
            cap = random_capacity(R, n, rng)
            x = tuple(rng.randrange(R.k) for _ in range(n))
            cpath = inp.write(capacity_text(R, n, "m", cap), "cap")
            base = integral_table(R, n, cap, "sup")
            inp.op("sugeno", ["sugeno", "--lattice", spec, "--capacity",
                              cpath, "--x", R.fmt(x), "--emit-table"],
                   spec=spec, n=n, cap=cap, x=x, form="sup")
            inp.op("sugeno", ["sugeno", "--lattice", spec, "--capacity",
                              cpath, "--x", R.fmt(x), "--form", "inf",
                              "--emit-table"],
                   spec=spec, n=n, cap=cap, x=x, form="inf")
            extra = [] if R.distributive else ["--allow-nondistributive"]
            for label, values in (("integral", base),
                                  ("step", step_table(R, base))):
                path = inp.write(table_text(R, n, "t%s" % label, values),
                                 "tbl")
                for method in ("boolean", "direct"):
                    inp.op("recognize",
                           ["recognize", "--lattice", spec, "--table", path,
                            "--method", method] + extra,
                           spec=spec, n=n, table=values, label=label,
                           method=method, cap=cap)
    elif workload == "theorem-suites":
        for spec, n, repeats, seeded in THEOREM_SUITES:
            inp.group()
            for _ in range(repeats):
                suite_seed = rng.randrange(10 ** 6) if seeded else 0
                inp.op("theorem-suite",
                       ["theorem-suite", "all", "--lattice", spec,
                        "--arity", str(n), "--seed", str(suite_seed)],
                       spec=spec, n=n, seed=suite_seed)
    else:
        raise ValueError("unknown workload %r" % workload)
    return inp.ops()
