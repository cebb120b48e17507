"""Self-test of the benchmark's checks: each one must be able to fail.

    python3 perfbench/selftest.py

Runs one round of every workload, confirms that the checks pass on the
genuine outputs, then feeds them single corrupted outputs (a flipped
verdict, a witness shifted by one coordinate, a wrong capacity value, a
changed pairs_checked, a changed table value, a changed suite count) and
confirms that each corruption is reported.  It also compares the
benchmark's fast references with ``tests/_oracles.py`` on small domains.
Exits 0 when every check behaved, 1 otherwise.
"""

import copy
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys

import run
from lattices import _oracles, integral_table, oracle_integral, points, ref_spec
import checks
import workloads


def outputs_of(workload, seed):
    run_dir = os.path.join(run.WORK, "selftest-%s" % workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = workloads.build(workload, seed, os.path.relpath(run_dir, run.ROOT))
    argv_path = os.path.join(run_dir, "argv.json")
    raw_path = os.path.join(run_dir, "runner.json")
    with open(argv_path, "w", encoding="utf-8") as handle:
        json.dump([op["argv"] for op in ops], handle)
    subprocess.run([sys.executable, os.path.join(run.HERE, "runner.py"),
                    argv_path, raw_path, "0", "0"], cwd=run.ROOT,
                   env=run.child_env(), check=True, timeout=run.CHILD_TIMEOUT)
    with open(raw_path, encoding="utf-8") as handle:
        outputs = json.load(handle)["outputs"]
    shutil.rmtree(run_dir, ignore_errors=True)
    return ops, outputs


def shift_vector(text):
    """Rotate the coordinates of the first vector literal by one."""
    match = re.search(r"\(([^()]*)\)", text)
    coords = match.group(1).split(",")
    rotated = coords[1:] + coords[:1]
    if rotated == coords:
        return None
    return (text[:match.start()] + "(" + ",".join(rotated) + ")"
            + text[match.end():])


def corrupt(ops, outputs, kind, pick, edit):
    """A copy of outputs with one op's stdout edited; None if no op fits."""
    for op in ops:
        out = outputs[op["id"]]
        if op["kind"] != kind or not pick(op, out["stdout"]):
            continue
        text = edit(op, out["stdout"])
        if text is None or text == out["stdout"]:
            continue
        bad = copy.deepcopy(outputs)
        bad[op["id"]]["stdout"] = text
        return bad
    return None


def flip_axiom(op, text):
    return re.sub(r"(axiom idempotent: )(true|false)",
                  lambda m: m.group(1) + ("false" if m.group(2) == "true"
                                          else "true"), text, count=1)


def shift_pair_witness(op, text):
    for line in text.splitlines():
        if "fails at x=" in line and ", y=" in line:
            head, _, witness = line.partition("fails at x=")
            shifted = shift_vector("(" + witness.split("(", 1)[1])
            if shifted:
                return text.replace(line, head + "fails at x=" + shifted, 1)
    return None


def bump_pairs(op, text):
    return re.sub(r"\(pairs (\d+)\)",
                  lambda m: "(pairs %d)" % (int(m.group(1)) + 1), text,
                  count=1)


def wrong_capacity(op, text):
    R = ref_spec(op["meta"]["spec"])
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("{1} -> "):
            value = R.index[line.strip()[len("{1} -> "):]]
            lines[i] = "{1} -> %s\n" % R.names[(value + 1) % R.k]
            return "".join(lines)
    return None


def flip_recognition(op, text):
    return text.replace("verdict: not_sugeno", "verdict: sugeno", 1)


def wrong_table_value(op, text):
    R = ref_spec(op["meta"]["spec"])
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if " -> " in line and line.startswith("("):
            left, _, right = line.rstrip("\n").partition(" -> ")
            lines[i] = "%s -> %s\n" % (left,
                                       R.names[(R.index[right] + 1) % R.k])
            return "".join(lines)
    return None


def shift_example1_witness(op, text):
    match = re.search(r"strictness witness: y=(\([^()]*\))", text)
    if not match:
        return None
    shifted = shift_vector(match.group(1))
    return shifted and text.replace(match.group(1), shifted, 1)


def bump_divergence(op, text):
    return re.sub(r"(\d+) divergent pairs",
                  lambda m: "%d divergent pairs" % (int(m.group(1)) + 1),
                  text, count=1)


def bump_census(op, text):
    return re.sub(r"(\d+) aggregation tables",
                  lambda m: "%d aggregation tables" % (int(m.group(1)) + 1),
                  text, count=1)


CORRUPTIONS = {
    "axiom-report": (
        ("flipped verdict", "axioms", lambda op, t: True, flip_axiom),
        ("witness shifted by one coordinate", "axioms",
         lambda op, t: "fails at x=" in t, shift_pair_witness),
        ("changed pairs_checked", "axioms", lambda op, t: True, bump_pairs),
    ),
    "tabulate-recognize": (
        ("wrong capacity value", "recognize",
         lambda op, t: "verdict: sugeno" in t, wrong_capacity),
        ("flipped verdict", "recognize",
         lambda op, t: "verdict: not_sugeno" in t, flip_recognition),
        ("wrong emitted table value", "sugeno", lambda op, t: True,
         wrong_table_value),
    ),
    "theorem-suites": (
        ("witness shifted by one coordinate", "theorem-suite",
         lambda op, t: "strictness witness" in t, shift_example1_witness),
        ("changed divergence count", "theorem-suite",
         lambda op, t: "divergent pairs" in t, bump_divergence),
        ("changed census count", "theorem-suite",
         lambda op, t: "aggregation tables" in t, bump_census),
    ),
}


def reference_agreement():
    """The fast references against _oracles on small domains."""
    problems = []
    for spec, n in (("chain:3", 2), ("builtin:N5", 2), ("builtin:M3", 2),
                    ("boolean:2", 2), ("prod:chain:2xchain:3", 2)):
        R = ref_spec(spec)
        pts = points(R, n)
        caps = _oracles.ref_capacities(R.L, n)
        for cap in caps[:: max(1, len(caps) // 12)]:
            for form in ("sup", "inf"):
                fast = integral_table(R, n, cap, form)
                slow = [oracle_integral(R, cap, x, form) for x in pts]
                if fast != slow:
                    problems.append("level-set %s integral differs from "
                                    "the oracle on %s" % (form, spec))
        D = checks.domain(spec, n)
        if len(pts) <= 9:
            tables = _oracles.ref_aggregations(R.L, n)
        else:
            rng = random.Random(spec)
            tables = []
            for cap in caps[:: max(1, len(caps) // 12)]:
                base = integral_table(R, n, cap, "sup")
                tables += [base, workloads.step_table(R, base),
                           workloads.point_table(R, n, base, rng)]
        for table in itertools.islice(tables, 200):
            mine = {k: v[0] for k, v in D.axioms(list(table)).items()}
            if mine != _oracles.ref_axioms(R.L, n, dict(zip(pts, table))):
                problems.append("axiom verdicts differ from ref_axioms on "
                                "%s: %s" % (spec, list(table)))
    return problems


SEED = 1


def main():
    if run.missing_sources():
        print("selftest: missing %s" % run.missing_sources(), file=sys.stderr)
        return 2
    ok = True
    problems = reference_agreement()
    print("fast references agree with tests/_oracles.py: %s"
          % ("yes" if not problems else problems[:3]))
    ok &= not problems
    for workload in workloads.WORKLOADS:
        ops, outputs = outputs_of(workload, SEED)
        failed, problems = checks.check(workload, ops, outputs, SEED)
        print("%s: genuine outputs: %d problems, failed ops %s"
              % (workload, len(problems),
                 [" ".join(ops[i]["argv"]) for i in sorted(failed)]))
        ok &= not problems
        for label, kind, pick, edit in CORRUPTIONS[workload]:
            bad = corrupt(ops, outputs, kind, pick, edit)
            if bad is None:
                print("  %s: no output to corrupt" % label)
                ok = False
                continue
            _, found = checks.check(workload, ops, bad, SEED)
            print("  %s: %s" % (label, ("caught: " + found[0]) if found
                                else "NOT CAUGHT"))
            ok &= bool(found)
    print("self-test: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
