"""Reference figures: ROADMAP's five baseline jobs, once each, stage by stage.

    python3 perfbench/baseline.py

Not a workload.  Each job is one CLI command on a fresh lattice (cold,
as a user's command line is), timed once without tracing and once with
the spans of tracing.py, whose per-layer breakdown is printed beside it.
The jobs are the ones ROADMAP's baseline table lists:

* ``axioms`` (characterization_report) on chain:11 at arity 3
* ``theorem-suite lemmas`` on chain:5 at arity 4
* ``theorem-suite thm2`` on boolean:2 at arity 4
* ``recognize`` on chain:11 at arity 4
* ``sugeno --emit-table`` (sugeno_table) on chain:11 at arity 5

The input tables are integrals of seeded capacities.  Results also go to
``.perfbench-work/baseline.json``.
"""

import json
import os
import random
import shutil
import sys

import run
import runner
import workloads
from lattices import integral_table, ref_spec
from tracing import Tracer


def jobs(workdir):
    rng = random.Random("baseline")
    inp = workloads.Inputs(workdir)
    out = []
    for name, spec, n in (("axioms chain:11 n=3", "chain:11", 3),
                          ("recognize chain:11 n=4", "chain:11", 4)):
        R = ref_spec(spec)
        cap = workloads.random_capacity(R, n, rng)
        path = inp.write(workloads.table_text(
            R, n, "t", integral_table(R, n, cap, "sup")), "tbl")
        out.append((name, [name.split()[0], "--lattice", spec,
                           "--table", path]))
    out.append(("theorem-suite lemmas chain:5 n=4",
                ["theorem-suite", "lemmas", "--lattice", "chain:5",
                 "--arity", "4"]))
    out.append(("theorem-suite thm2 boolean:2 n=4",
                ["theorem-suite", "thm2", "--lattice", "boolean:2",
                 "--arity", "4"]))
    R = ref_spec("chain:11")
    cap = workloads.random_capacity(R, 5, rng)
    path = inp.write(workloads.capacity_text(R, 5, "m", cap), "cap")
    out.append(("sugeno --emit-table chain:11 n=5",
                ["sugeno", "--lattice", "chain:11", "--capacity", path,
                 "--x", "(0,0,0,0,0)", "--form", "sup", "--emit-table"]))
    return out


def main():
    if run.missing_sources():
        print("baseline: missing %s" % run.missing_sources(), file=sys.stderr)
        return 2
    os.chdir(run.ROOT)  # the jobs name their input files relative to it
    workdir = os.path.join(run.WORK, "baseline")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    package = runner.import_package()
    results = []
    for name, argv in jobs(os.path.relpath(workdir, run.ROOT)):
        wall, code, _, _, error = runner.run_op(package.cli, argv)
        tracer = Tracer()
        tracer.install(package)
        traced, _, _, _, _ = runner.run_op(package.cli, argv)
        tracer.uninstall()
        stages = {k: v["value"] for k, v in tracer.metrics(1).items()
                  if v["value"]}
        results.append({"job": name, "argv": argv, "exit": code,
                        "error": error, "wall_s": wall, "traced_s": traced,
                        "stages": stages})
        print("%-34s %8.3f s  (traced %.3f s, exit %s)"
              % (name, wall, traced, code))
        for key, value in sorted(stages.items(), key=lambda kv: -kv[1]):
            unit = "ms" if key.endswith("_ms") else ""
            print("    %-32s %14.1f %s" % (key, value, unit))
        sys.stdout.flush()
    with open(os.path.join(run.WORK, "baseline.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
