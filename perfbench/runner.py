"""The workload process: runs whole rounds of CLI operations in-process.

Started by run.py in a fresh interpreter, once per workload run, with a
JSON list of the operations' command lines (and nothing else, so that its
peak RSS is the package's and not the benchmark's reference data):

    python3 perfbench/runner.py <argv.json> <result.json> <seconds> <trace 0|1> [<trace file>]
    python3 perfbench/runner.py --probe <spec> [<spec> ...]

Each operation is one ``lattice_sugeno.cli.main(argv)`` call with its
standard output captured.  Every call builds its own lattice from its
spec, so nothing carries over from one operation to the next.  Rounds of
the whole op list repeat until ``seconds`` have passed; a round is never
cut short.  Peak RSS is read at the end of the timed phase.  The probe
form measures set-up: it imports the CLI, builds and validates each
lattice once, then prints ``ready``.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import lattice_sugeno
    import lattice_sugeno.cli
    where = os.path.dirname(os.path.abspath(lattice_sugeno.__file__))
    if where != os.path.join(SRC, "lattice_sugeno"):
        raise ImportError("lattice_sugeno came from %s, not from %s"
                          % (where, SRC))
    return lattice_sugeno


def probe(specs):
    package = import_package()
    cli = package.cli
    for spec in specs:
        cli.is_distributive(cli.build_lattice(spec))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation
        code = None
        error = "%s: %s" % (type(exc).__name__, exc)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
        error = "SystemExit"
    elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue(), error


def main(argv):
    if argv[0] == "--probe":
        probe(argv[1:])
        return 0
    argv_path, result_path, seconds, traced = argv[:4]
    seconds = float(seconds)
    traced = traced == "1"
    with open(argv_path, encoding="utf-8") as handle:
        commands = json.load(handle)
    package = import_package()
    cli = package.cli
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(package)

    first = [None] * len(commands)
    digests = [None] * len(commands)
    unstable = set()
    times = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for i, command in enumerate(commands):
            elapsed, code, out, err, error = run_op(cli, command)
            times.append(elapsed)
            digest = hashlib.sha1(out.encode()).hexdigest()
            if first[i] is None:
                first[i] = {"exit": code, "stdout": out, "stderr": err,
                            "error": error}
                digests[i] = (digest, code)
            elif digests[i] != (digest, code):
                unstable.add(i)
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rounds": rounds, "wall": wall, "times": times,
              "peak_rss_mb": peak_rss_mb, "outputs": first,
              "unstable": sorted(unstable)}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(len(times))
        if len(argv) > 4:
            tracer.write(argv[4])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
