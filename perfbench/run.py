"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload axiom-report --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the three
workloads one after another and prints one JSON object keyed by workload.
The run generates the workload's inputs
from the seed, times set-up in fresh probe processes, runs the timed phase
in a fresh workload process (runner.py), checks the outputs against the
reference code (checks.py), and prints one JSON object as its last line.
With ``--trace 1`` the workload process records spans and the JSON carries
the per-layer metrics instead of the end-to-end ones.

Everything the run writes goes under ``.perfbench-work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOAD_NAMES = ("axiom-report", "tabulate-recognize", "theorem-suites")
SETUP_PROBES = 7
CHILD_TIMEOUT = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def missing_sources():
    needed = [os.path.join(ROOT, "src", "lattice_sugeno", "cli.py"),
              os.path.join(ROOT, "tests", "_oracles.py")]
    return [p for p in needed if not os.path.isfile(p)]


def time_setup(specs):
    """Median wall time from spawning a fresh interpreter to the CLI
    module imported and every lattice of the workload built and checked
    for distributivity once."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runner.py"), "--probe"]
            + specs, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        samples.append(elapsed)
    return statistics.median(samples), samples


def run_workload(workload, seed, seconds, trace):
    """One run of one workload: the result object of the last output line,
    or None when the workload process did not finish."""
    import checks
    import workloads

    run_dir = os.path.join(WORK, "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = workloads.build(workload, seed, os.path.relpath(run_dir, ROOT))
    argv_path = os.path.join(run_dir, "argv.json")
    with open(argv_path, "w", encoding="utf-8") as handle:
        json.dump([op["argv"] for op in ops], handle)

    setup_s, setup_samples = time_setup(workloads.lattice_specs(workload))

    raw_path = os.path.join(run_dir, "runner.json")
    trace_path = os.path.join(WORK, "trace-%s.jsonl" % workload)
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), argv_path,
           raw_path, str(seconds), str(trace)]
    if trace:
        cmd.append(trace_path)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        print("perfbench: workload process exited with %d" % proc.returncode,
              file=sys.stderr)
        return None
    with open(raw_path, encoding="utf-8") as handle:
        raw = json.load(handle)

    failed, problems = checks.check(workload, ops, raw["outputs"], seed)
    for i in raw["unstable"]:
        problems.append("op %d: output changed between rounds" % i)
    attempted = len(raw["times"])
    failed_count = raw["rounds"] * len(failed)
    ops_per_s = attempted / raw["wall"]
    p50_ms = statistics.median(raw["times"]) * 1000.0

    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "rounds": raw["rounds"], "wall_s": raw["wall"],
        "ops_per_s": ops_per_s, "latency_p50_ms": p50_ms,
        "setup_samples_s": setup_samples,
        "failed_ops": [" ".join(ops[i]["argv"]) for i in sorted(failed)],
        "problems": problems,
        "op_times_s": [{"op": i % len(ops), "s": t}
                       for i, t in enumerate(raw["times"])],
        "metrics": metrics,
    }
    with open(os.path.join(WORK, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace)),
              "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    for line in problems[:20]:
        print("problem: %s" % line, file=sys.stderr)
    print("%s: %d rounds of %d ops in %.1f s, %.3f ops/s, p50 %.1f ms, "
          "%d failed" % (workload, raw["rounds"], len(ops), raw["wall"],
                         ops_per_s, p50_ms, failed_count), file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed_count, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print("perfbench: run from the root of a lattice-sugeno checkout; "
              "missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
