"""Checks of every workload's outputs against the reference code.

Run after the timed phase, on the first round's output of each operation
(later rounds must repeat it byte for byte).  Nothing here imports the
package: verdicts, counts, witnesses, tables and capacities are recomputed
from ``tests/_oracles.py`` and from the definitions, on the generated
inputs, and compared with the printed text.

``check(workload, ops, outputs)`` returns ``(failed, problems)``:
``failed`` holds the ids of operations whose exit status differs from the
reference outcome (or that raised), ``problems`` lists every disagreement
found in the output of the operations that did not fail.
"""

import itertools
import random
from fractions import Fraction

from lattices import (_oracles, char_vector, integral_table, oracle_integral,
                      points, ref_spec)

AXIOM_ORDER = (
    "monotone_boundary", "idempotent", "inf_homogeneous", "sup_homogeneous",
    "boolean_inf_homogeneous", "boolean_sup_homogeneous",
    "comonotone_supremal", "comonotone_infimal",
    "g_comonotone_supremal", "g_comonotone_infimal",
)

CONDITIONS = (
    ("inf_homogeneous", "g_comonotone_supremal"),
    ("sup_homogeneous", "g_comonotone_infimal"),
    ("inf_homogeneous", "comonotone_supremal"),
    ("sup_homogeneous", "comonotone_infimal"),
    ("comonotone_supremal", "comonotone_infimal"),
    ("g_comonotone_supremal", "g_comonotone_infimal"),
    ("boolean_sup_homogeneous", "boolean_inf_homogeneous"),
)

#: conditions that involve a homogeneity axiom (all but the two
#: pair-only conjunctions)
HOMOGENEITY_CONDITIONS = (0, 1, 2, 3, 6)


class Domain:
    """L^n with the reference relation-pair lists, built once per
    (spec, arity)."""

    def __init__(self, spec, n):
        self.R = R = ref_spec(spec)
        self.n = n
        self.pts = points(R, n)
        self.pos = {x: i for i, x in enumerate(self.pts)}
        self.cube = list(itertools.product((R.L.bottom, R.L.top), repeat=n))
        self._pairs = {}
        self._integrals = {}

    def integral(self, cap, form):
        """The whole reference integral table of a capacity, cached."""
        key = (tuple(cap), form)
        if key not in self._integrals:
            self._integrals[key] = integral_table(self.R, self.n, cap, form)
        return self._integrals[key]

    def pairs(self, relation):
        """Related (x, y) with x lex <= y, diagonal included, in the
        order (index of x, index of y)."""
        if relation not in self._pairs:
            pred = {"comonotone": _oracles.ref_comonotone,
                    "g_comonotone": _oracles.ref_g_com}[relation]
            pts, L = self.pts, self.R.L
            self._pairs[relation] = [
                (pts[a], pts[b]) for a in range(len(pts))
                for b in range(a, len(pts)) if pred(L, pts[a], pts[b])]
        return self._pairs[relation]

    def axioms(self, table):
        """{kind: (holds, identities up to and including the first
        failure, first failing item)} in the package's sweep orders."""
        R, n, pos, T = self.R, self.n, self.pos, table
        meet, join, leq = R.meet_t, R.join_t, R.leq_t
        out = {}

        def sweep(kind, items, bad):
            count = 0
            for item in items:
                count += 1
                if bad(item):
                    out[kind] = (False, count, item)
                    return
            out[kind] = (True, count, None)

        bottom_vec, top_vec = (R.L.bottom,) * n, (R.L.top,) * n

        def monotone_items():
            yield ("boundary", bottom_vec, R.L.bottom)
            yield ("boundary", top_vec, R.L.top)
            for x in self.pts:
                for i in range(n):
                    for c in R.upper[x[i]]:
                        yield ("monotone", x, x[:i] + (c,) + x[i + 1:])

        def monotone_bad(item):
            if item[0] == "boundary":
                return T[pos[item[1]]] != item[2]
            return not leq[T[pos[item[1]]]][T[pos[item[2]]]]

        sweep("monotone_boundary", monotone_items(), monotone_bad)
        sweep("idempotent", range(R.k), lambda c: T[pos[(c,) * n]] != c)
        for kind, op, dom in (
                ("inf_homogeneous", meet, self.pts),
                ("sup_homogeneous", join, self.pts),
                ("boolean_inf_homogeneous", meet, self.cube),
                ("boolean_sup_homogeneous", join, self.cube)):
            sweep(kind, ((c, x) for c in range(R.k) for x in dom),
                  lambda item, op=op: T[pos[tuple(op[item[0]][v]
                                                  for v in item[1])]]
                  != op[item[0]][T[pos[item[1]]]])
        for kind, rel, op in (
                ("comonotone_supremal", "comonotone", join),
                ("comonotone_infimal", "comonotone", meet),
                ("g_comonotone_supremal", "g_comonotone", join),
                ("g_comonotone_infimal", "g_comonotone", meet)):
            sweep(kind, self.pairs(rel),
                  lambda item, op=op: T[pos[tuple(op[a][b] for a, b in
                                                  zip(*item))]]
                  != op[T[pos[item[0]]]][T[pos[item[1]]]])
        return out

    def is_integral(self, table):
        """The table equals the integral of its characteristic-vector
        capacity: both forms on distributive lattices, the sup-of-meets
        form elsewhere (the recognizer's non-distributive mode)."""
        cap = [table[self.pos[char_vector(self.R, self.n, mask)]]
               for mask in range(1 << self.n)]
        forms = ("sup", "inf") if self.R.distributive else ("sup",)
        return cap, all(self.integral(cap, f) == table for f in forms)


_DOMAINS = {}


def domain(spec, n):
    if (spec, n) not in _DOMAINS:
        _DOMAINS[spec, n] = Domain(spec, n)
    return _DOMAINS[spec, n]


class Report:
    def __init__(self):
        self.problems = []

    def expect(self, cond, op, message):
        if not cond:
            self.problems.append("op %d (%s): %s"
                                 % (op["id"], " ".join(op["argv"]), message))
        return cond

    def run(self, check_fn, op, *args):
        """Run one op's check; output it cannot read is a problem too."""
        try:
            check_fn(self, op, *args)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            self.expect(False, op, "unreadable output (%s: %s)"
                        % (type(exc).__name__, exc))


# -- axiom-report ----------------------------------------------------------


def parse_axioms(text):
    """The rendered CheckReport as {kind: (holds, pairs, witness text)},
    [(label, verdict)], consistent, total."""
    axioms, conditions = {}, []
    consistent = total = None
    for line in text.splitlines():
        if line.startswith("axiom "):
            head, _, witness = line[6:].partition("  ")
            kind, _, rest = head.partition(": ")
            verdict, _, pairs = rest.partition(" (pairs ")
            axioms[kind] = (verdict == "true", int(pairs.rstrip(")")),
                            witness or None)
        elif line.startswith("condition "):
            label, _, verdict = line[10:].rpartition(": ")
            conditions.append((label, verdict == "true"))
        elif line.startswith("consistent: "):
            consistent = line.endswith("true")
        elif line.startswith("pairs_checked_total: "):
            total = int(line.split(": ")[1])
    return axioms, conditions, consistent, total


def parse_witness(D, kind, text):
    """Printed axiom witness -> the item shape Domain.axioms yields."""
    R = D.R
    if text.startswith("boundary fails at x="):
        x = R.parse_vec(text[len("boundary fails at x="):])
        bound = R.L.bottom if x == (R.L.bottom,) * D.n else R.L.top
        return ("boundary", x, bound)
    if text.startswith("monotonicity fails between "):
        left, _, right = text[len("monotonicity fails between "):] \
            .partition(" and ")
        return ("monotone", R.parse_vec(left), R.parse_vec(right))
    if kind == "idempotent":
        return R.index[text[len("fails at c="):]]
    if "homogeneous" in kind:
        c, _, x = text[len("fails at c="):].partition(", x=")
        return (R.index[c], R.parse_vec(x))
    x, _, y = text[len("fails at x="):].partition(", y=")
    return (R.parse_vec(x), R.parse_vec(y))


def witness_violates(D, kind, table, item):
    """Recompute the identity at a printed witness with the reference
    meet and join; True when it indeed fails there."""
    R, T, pos = D.R, table, D.pos
    meet, join = R.meet_t, R.join_t
    if kind == "monotone_boundary":
        if item[0] == "boundary":
            return T[pos[item[1]]] != item[2]
        x, y = item[1], item[2]
        return (all(R.leq_t[a][b] for a, b in zip(x, y))
                and not R.leq_t[T[pos[x]]][T[pos[y]]])
    if kind == "idempotent":
        return T[pos[(item,) * D.n]] != item
    if "homogeneous" in kind:
        c, x = item
        if kind.startswith("boolean") and x not in D.cube:
            return False
        op = meet if "inf" in kind else join
        return T[pos[tuple(op[c][v] for v in x)]] != op[c][T[pos[x]]]
    x, y = item
    pred = _oracles.ref_g_com if kind.startswith("g_") else \
        _oracles.ref_comonotone
    op = join if kind.endswith("supremal") else meet
    return (pred(R.L, x, y)
            and T[pos[tuple(op[a][b] for a, b in zip(x, y))]]
            != op[T[pos[x]]][T[pos[y]]])


def reference_conditions(ref):
    return [ref[a][0] and ref[b][0] for a, b in CONDITIONS]


def check_axioms_op(rep, op, out, D, ref):
    table = op["meta"]["table"]
    axioms, conditions, consistent, total = parse_axioms(out["stdout"])
    if not rep.expect(list(axioms) == list(AXIOM_ORDER), op,
                      "axiom lines %s" % list(axioms)):
        return
    for kind in AXIOM_ORDER:
        holds, pairs, witness = axioms[kind]
        r_holds, r_count, r_item = ref[kind]
        rep.expect(holds == r_holds, op, "%s verdict %s, reference %s"
                   % (kind, holds, r_holds))
        rep.expect(pairs == r_count, op, "%s pairs_checked %d, reference %d"
                   % (kind, pairs, r_count))
        if holds:
            rep.expect(witness is None, op, "%s holds with a witness" % kind)
            continue
        if not rep.expect(witness is not None, op,
                          "%s fails without a witness" % kind):
            continue
        try:
            item = parse_witness(D, kind, witness)
        except (KeyError, ValueError) as exc:
            rep.expect(False, op, "%s witness %r unreadable: %s"
                       % (kind, witness, exc))
            continue
        rep.expect(witness_violates(D, kind, table, item), op,
                   "%s witness %r does not violate the identity"
                   % (kind, witness))
        rep.expect(item == r_item, op, "%s witness %r is not the first "
                   "failure %r" % (kind, witness, r_item))
    ref_conds = reference_conditions(ref)
    rep.expect([v for _, v in conditions] == ref_conds, op,
               "condition verdicts %s, reference %s"
               % ([v for _, v in conditions], ref_conds))
    rep.expect([label for label, _ in conditions]
               == ["%s & %s" % pair for pair in CONDITIONS], op,
               "condition labels")
    rep.expect(consistent == (len(set(ref_conds)) == 1), op, "consistent")
    rep.expect(total == sum(axioms[k][1] for k in AXIOM_ORDER), op,
               "pairs_checked_total %s" % total)
    if D.R.distributive:
        if op["meta"]["label"] == "integral":
            rep.expect(all(ref_conds), op,
                       "integral table fails a characterization")
        else:
            rep.expect(not any(ref_conds[i] for i in HOMOGENEITY_CONDITIONS),
                       op, "non-integral table passes a homogeneity "
                       "characterization")


def check_bench_op(rep, op, out, D, ref):
    R, n = D.R, D.n
    lines = [ln.split() for ln in out["stdout"].splitlines() if ln.strip()]
    want = [str(R.k), str(n),
            str(ref["boolean_inf_homogeneous"][1]),
            str(ref["inf_homogeneous"][1]),
            str(ref["comonotone_supremal"][1]),
            str(ref["g_comonotone_supremal"][1]),
            str(Fraction(R.k ** n, 2 ** n))]
    rep.expect(len(lines) >= 2 and lines[1] == want, op,
               "cost row %s, reference %s"
               % (lines[1] if len(lines) > 1 else None, want))


def check_axiom_report(rep, ops, outputs, failed):
    refs = {}
    for op in ops:
        meta = op["meta"]
        D = domain(meta["spec"], meta["n"])
        key = op["argv"][-1]  # the table file
        if key not in refs:
            refs[key] = D.axioms(meta["table"])
        ref = refs[key]
        out = outputs[op["id"]]
        if op["kind"] == "axioms":
            expected = 0 if len(set(reference_conditions(ref))) == 1 else 1
        else:
            expected = 0
        if out["error"] or out["exit"] != expected:
            failed.add(op["id"])
            continue
        rep.run(check_axioms_op if op["kind"] == "axioms" else check_bench_op,
                op, out, D, ref)


# -- tabulate-recognize ----------------------------------------------------


def parse_table_text(D, text):
    """Table lines after the header -> list of values in product order,
    or None when points are missing, repeated or out of order."""
    lines = text.splitlines()
    values = []
    for line, x in itertools.zip_longest(lines[1:], D.pts):
        if line is None or x is None:
            return lines[0] if lines else "", None
        left, _, right = line.partition(" -> ")
        if left != D.R.fmt(x) or right not in D.R.index:
            return lines[0], None
        values.append(D.R.index[right])
    return lines[0], values


def check_sugeno_op(rep, op, out, D, sample_rng):
    meta = op["meta"]
    R, n, cap, x = D.R, D.n, meta["cap"], tuple(meta["x"])
    form = meta["form"]
    lines = out["stdout"].split("\n")
    ref_tables = {f: D.integral(cap, f) for f in ("sup", "inf")}
    at_x = {f: ref_tables[f][D.pos[x]] for f in ("sup", "inf")}
    for f in ("sup", "inf"):
        rep.expect(oracle_integral(R, cap, x, f) == at_x[f], op,
                   "level-set %s integral disagrees with the oracle at x" % f)
    if "--form" in op["argv"]:
        head = ["inf_of_joins: %s" % R.names[at_x["inf"]]]
    else:
        head = ["sup_of_meets: %s" % R.names[at_x["sup"]],
                "inf_of_joins: %s" % R.names[at_x["inf"]],
                "forms agree: %s" % ("true" if at_x["sup"] == at_x["inf"]
                                     else "false")]
    rep.expect(lines[:len(head)] == head, op, "point values %s, reference %s"
               % (lines[:len(head)], head))
    header, values = parse_table_text(D, "\n".join(lines[len(head):]))
    rep.expect(header == "table su_m over %s arity %d" % (R.name, n), op,
               "table header %r" % header)
    if not rep.expect(values is not None, op, "emitted table is incomplete"):
        return
    rep.expect(values == ref_tables[form], op,
               "emitted %s table differs from the reference" % form)
    if R.distributive:
        rep.expect(values == ref_tables["inf" if form == "sup" else "sup"],
                   op, "emitted table differs from the other form")
    for x in sample_rng.sample(D.pts, min(16, len(D.pts))):
        for f in (("sup", "inf") if R.distributive else (form,)):
            rep.expect(values[D.pos[x]] == oracle_integral(R, cap, x, f), op,
                       "emitted value at %s differs from ref_sugeno_%s"
                       % (R.fmt(x), f))


def parse_recognition(text):
    lines = text.splitlines()
    fields = {}
    cap_lines = []
    for line in lines:
        key, sep, value = line.partition(": ")
        if key in ("verdict", "witness", "method", "pairs_checked",
                   "verification_points") and sep:
            fields[key] = value
        elif line.startswith("{") or line.startswith("capacity "):
            cap_lines.append(line)
    return fields, cap_lines


def check_recognize_op(rep, op, out, D, integral, recovered):
    meta = op["meta"]
    R, n, T = D.R, D.n, meta["table"]
    fields, cap_lines = parse_recognition(out["stdout"])
    forced = not R.distributive
    forms = 1 if forced else 2
    method = "direct" if forced else meta["method"]
    rep.expect(fields.get("method") == method, op,
               "method %r" % fields.get("method"))
    if integral:
        if not rep.expect(fields.get("verdict") == "sugeno", op,
                          "integral table refused"):
            return
        want = ["capacity rec_%s over %s arity %d"
                % ("t" + meta["label"], R.name, n)]
        for mask in range(1 << n):
            members = ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
            want.append("{%s} -> %s" % (members, R.names[meta["cap"][mask]]))
        rep.expect(cap_lines == want, op,
                   "printed capacity differs from the generating one")
        points_ = int(fields.get("verification_points", -1))
        rep.expect(points_ == len(D.pts) * forms, op,
                   "verification_points %d, want %d x %d"
                   % (points_, len(D.pts), forms))
        pairs = int(fields.get("pairs_checked", -1))
        want_pairs = (2 * R.k * 2 ** n if method == "boolean"
                      else len(D.pts) * forms)
        rep.expect(pairs == want_pairs, op, "pairs_checked %d, want %d"
                   % (pairs, want_pairs))
        return
    if not rep.expect(fields.get("verdict") == "not_sugeno", op,
                      "non-integral table accepted"):
        return
    witness = fields.get("witness", "")
    try:
        if witness.startswith("boolean_"):
            side = witness[8:11]
            body = witness[len("boolean_inf_homogeneous fails at c="):]
            c_name, _, rest = body.partition(", x=")
            x_text, _, _ = rest.partition(": ")
            c, x = R.index[c_name], R.parse_vec(x_text)
            op_t = R.meet_t if side == "inf" else R.join_t
            lhs = T[D.pos[tuple(op_t[c][v] for v in x)]]
            rhs = op_t[c][T[D.pos[x]]]
            ok = x in D.cube and lhs != rhs and witness.endswith(
                "f(c%sx)=%s, c%sf(x)=%s"
                % ("^v"[side == "sup"], R.names[lhs], "^v"[side == "sup"],
                   R.names[rhs]))
        else:
            body = witness[1:]
            x_text, _, rest = body.partition("=")
            got_name, _, exp_name = rest.partition(
                " but the recovered capacity integrates to ")
            x = R.parse_vec(x_text)
            got, expected = R.index[got_name], R.index[exp_name]
            refs = {D.integral(recovered, f)[D.pos[x]]
                    for f in (("sup", "inf") if R.distributive else ("sup",))}
            ok = T[D.pos[x]] == got and expected in refs and got != expected
    except (KeyError, ValueError):
        ok = False
    rep.expect(ok, op, "refusal witness %r does not hold" % witness)


def check_tabulate_recognize(rep, ops, outputs, failed, seed):
    sample_rng = random.Random("checks:%d" % seed)
    verdicts = {}
    for op in ops:
        meta = op["meta"]
        D = domain(meta["spec"], meta["n"])
        out = outputs[op["id"]]
        if op["kind"] == "sugeno":
            x = tuple(meta["x"])
            sup = D.integral(meta["cap"], "sup")[D.pos[x]]
            inf = D.integral(meta["cap"], "inf")[D.pos[x]]
            expected = 0 if "--form" in op["argv"] or sup == inf else 1
        else:
            key = op["argv"][4]  # the table file
            if key not in verdicts:
                verdicts[key] = D.is_integral(meta["table"])
            recovered, integral = verdicts[key]
            expected = 0 if integral else 1
        if out["error"] or out["exit"] != expected:
            failed.add(op["id"])
            continue
        if op["kind"] == "sugeno":
            rep.run(check_sugeno_op, op, out, D, sample_rng)
        else:
            rep.run(check_recognize_op, op, out, D, integral, recovered)


# -- theorem-suites --------------------------------------------------------


def parse_suites(text):
    """{scope: (status, cases, [detail lines])}"""
    out = {}
    current = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            out[current][2].append(line[2:])
            continue
        scope, _, rest = line.partition(": ")
        status, _, cases = rest.partition(" (")
        current = scope
        out[scope] = (status, int(cases.split()[0]), [])
    return out


class SuiteReference:
    """What each suite must report on one (spec, arity)."""

    def __init__(self, spec, n):
        D = self.D = domain(spec, n)
        R, L = D.R, D.R.L
        self.chain = all(R.leq_t[a][b] or R.leq_t[b][a]
                         for a in range(R.k) for b in range(R.k))
        pts = D.pts
        self.sweep = len(pts) ** 2
        self.divergent = [(x, y) for x in pts for y in pts
                          if _oracles.ref_g_com(L, x, y)
                          != _oracles.ref_dual_g_com(L, x, y)]
        self.census = None
        if len(pts) <= 9:
            tables = _oracles.ref_aggregations(L, n)
            caps = _oracles.ref_capacities(L, n)
            integrals = {tuple(integral_table(R, n, c, "sup")) for c in caps}
            verdicts, prop1 = [], set()
            for combo in tables:
                ref = _oracles.ref_axioms(L, n, dict(zip(pts, combo)))
                verdicts.append([ref[a] and ref[b] for a, b in CONDITIONS])
                if ref["inf_homogeneous"] and ref["comonotone_supremal"]:
                    prop1.add(combo)
            satisfiers = {t for t, v in zip(tables, verdicts) if all(v)}
            self.census = {
                "tables": len(tables), "capacities": len(caps),
                "counts": [sum(v[i] for v in verdicts)
                           for i in range(len(CONDITIONS))],
                "all": len(satisfiers),
                "match": satisfiers == integrals,
                "inconsistent": sum(len(set(v)) > 1 for v in verdicts),
                "prop1": len(prop1),
                "prop1_match": prop1 == integrals,
            }

    def expected_exit(self):
        if self.census is not None:
            c = self.census
            if not c["match"] or c["inconsistent"]:
                return 1
            if self.chain and not c["prop1_match"]:
                return 1
        return 0


def check_suite_output(rep, op, out, ref, thm1_only=False):
    suites = parse_suites(out["stdout"])
    D, R = ref.D, ref.D.R
    fmt = R.fmt
    thm1 = suites.get("thm1")
    if rep.expect(thm1 is not None, op, "no thm1 row"):
        status, cases, details = thm1
        rep.expect(cases == ref.sweep, op, "thm1 cases %d, want %d"
                   % (cases, ref.sweep))
        rep.expect(status == "pass", op, "thm1 status %s" % status)
        if R.distributive:
            rep.expect(not ref.divergent, op, "reference finds divergence on "
                       "a distributive lattice")
        else:
            x, y = ref.divergent[0]
            want = ("non-distributive lattice: %d divergent pairs, first "
                    "x=%s y=%s g=%s dual=%s (recorded)"
                    % (len(ref.divergent), fmt(x), fmt(y),
                       _oracles.ref_g_com(R.L, x, y),
                       _oracles.ref_dual_g_com(R.L, x, y)))
            rep.expect(details == [want], op, "thm1 divergence %s, "
                       "reference %r" % (details, want))
    if thm1_only:
        return
    for scope in ("thm2", "thm3", "prop1", "example1", "lemmas"):
        rep.expect(scope in suites, op, "no %s row" % scope)
    if not all(s in suites for s in ("thm2", "thm3", "prop1", "example1",
                                     "lemmas")):
        return
    if R.distributive:
        rep.expect(suites["thm2"][:2] == ("pass", ref.sweep), op,
                   "thm2 row %s" % (suites["thm2"][:2],))
    else:
        rep.expect(suites["thm2"][0] == "skip", op, "thm2 not skipped")
    census = ref.census
    if census is None:
        rep.expect(suites["thm3"][0] == "skip", op, "thm3 not skipped")
        rep.expect(suites["prop1"][0] == "skip", op, "prop1 not skipped")
    else:
        status, cases, details = suites["thm3"]
        rep.expect(cases == census["tables"], op, "thm3 table count %d, "
                   "reference %d" % (cases, census["tables"]))
        want = ["%d aggregation tables, %d capacities"
                % (census["tables"], census["capacities"])]
        want += ["condition %s & %s: %d satisfiers" % (a, b, count)
                 for (a, b), count in zip(CONDITIONS, census["counts"])]
        want.append("all seven conditions: %d satisfiers" % census["all"])
        want.append("satisfiers equal the integral tables: %s"
                    % census["match"])
        rep.expect(details[:len(want)] == want, op,
                   "thm3 census %s, reference %s" % (details[:len(want)], want))
        inconsistent = [d for d in details if d.startswith("CONDITIONS")]
        if census["inconsistent"]:
            rep.expect(len(inconsistent) == 1 and inconsistent[0].startswith(
                "CONDITIONS DISAGREE on %d tables" % census["inconsistent"]),
                op, "thm3 disagreement line %s" % inconsistent)
        wanted = ("pass" if census["match"] and not census["inconsistent"]
                  else "FAIL")
        rep.expect(status == wanted, op, "thm3 status %s" % status)
        if ref.chain:
            status, cases, details = suites["prop1"]
            want = ("%d of %d tables selected; equal to the %d integral "
                    "tables: %s" % (census["prop1"], census["tables"],
                                    census["capacities"],
                                    census["prop1_match"]))
            rep.expect(details == [want] and cases == census["tables"], op,
                       "prop1 %s, reference %r" % (details, want))
    status, cases, details = suites["example1"]
    if not ref.chain:
        rep.expect(status == "skip", op, "example1 not skipped")
    elif D.n == 2:
        rep.expect((status, cases) == ("pass", ref.sweep), op,
                   "example1 row %s %d" % (status, cases))
    else:
        rep.expect(status == "pass" and len(details) == 1, op,
                   "example1 status %s" % status)
        text = details[0] if details else ""
        prefix = "strictness witness: y="
        try:
            y_text, _, rest = text[len(prefix):].partition(
                " is g-comonotone with x=")
            x_text = rest.partition(" yet")[0]
            x, y = R.parse_vec(x_text), R.parse_vec(y_text)
            ok = (text.startswith(prefix)
                  and _oracles.ref_g_com(R.L, x, y)
                  and not _oracles.ref_comonotone(R.L, x, y)
                  and not _oracles.ref_comparable(R.L, x, y))
        except (KeyError, ValueError):
            ok = False
        rep.expect(ok, op, "example1 witness %r does not hold" % text)
    status, cases, details = suites["lemmas"]
    rep.expect(status == "pass", op, "lemmas status %s" % status)
    want = ["relation inclusions checked on %d pairs" % ref.sweep,
            "constant-vector lemma checked on %d pairs"
            % (R.k * len(D.pts)),
            "implication lemmas checked on 50 sampled tables",
            "integral compliance checked on 10 seeded capacities"]
    rep.expect(details[:4] == want, op, "lemmas details %s" % details[:4])
    rep.expect(cases == ref.sweep + R.k * len(D.pts) + 50 + 10, op,
               "lemmas cases %d" % cases)


def check_theorem_suites(rep, ops, outputs, failed):
    refs = {}
    for op in ops:
        meta = op["meta"]
        key = (meta["spec"], meta["n"])
        if key not in refs:
            refs[key] = SuiteReference(*key)
        ref = refs[key]
        out = outputs[op["id"]]
        if out["error"] or out["exit"] != ref.expected_exit():
            failed.add(op["id"])
            # the rows of the suites that ran still carry results
            if out["stdout"]:
                rep.run(check_suite_output, op, out, ref, True)
            continue
        rep.run(check_suite_output, op, out, ref)


def check(workload, ops, outputs, seed):
    rep = Report()
    failed = set()
    if workload == "axiom-report":
        check_axiom_report(rep, ops, outputs, failed)
    elif workload == "tabulate-recognize":
        check_tabulate_recognize(rep, ops, outputs, failed, seed)
    else:
        check_theorem_suites(rep, ops, outputs, failed)
    return failed, rep.problems
