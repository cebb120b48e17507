import importlib.util
import os
import resource
import subprocess
import sys

import pytest

import lattice_sugeno as ls
from lattice_sugeno import (
    Capacity,
    FunctionTable,
    format_capacity,
    format_table,
    parse_capacity,
    parse_lattice,
    parse_table,
    same_structure,
    sugeno_table,
    validate_capacity,
)
from lattice_sugeno.cli import main


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    c3 = ls.chain(3)
    paths = {}

    def put(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    put("h.tbl", format_table(FunctionTable(c3, 2, [0] + [2] * 8, name="h")))
    med = validate_capacity(c3, 2, (0, 1, 1, 2), name="med")
    put("med.cap", format_capacity(med))
    put("med.tbl", format_table(sugeno_table(med)))
    put("bad.cap", ("capacity m over chain3 arity 2\n"
                    "{1} -> 2\n{2} -> 0\n{1,2} -> 1\n"))
    put("split.cap", format_capacity(Capacity(ls.n5(), 2, (0, 0, 1, 4),
                                              name="w")))
    put("cyc.lat", ("lattice bad\nelements 0 a b 1\n"
                    "cover 0 a\ncover a b\ncover b a\ncover b 1\n"))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- relations ----------------------------------------------------------


def test_relations_holds(capsys):
    code, out, err = run(capsys, "relations", "--lattice", "chain:11",
                         "--x", "(6,3,5)", "--y", "(7,2,9)",
                         "--kind", "g-comonotone")
    assert (code, out, err) == (0, "g-comonotone: true\n", "")


def test_relations_pairwise_witness(capsys):
    code, out, err = run(capsys, "relations", "--lattice", "chain:11",
                         "--x", "(6,3,5)", "--y", "(7,2,9)",
                         "--kind", "comonotone")
    assert code == 1
    assert out == "comonotone: false\nwitness: coordinate pair (1,3)\n"


def test_relations_comparable_witness(capsys):
    code, out, _ = run(capsys, "relations", "--lattice", "chain:11",
                       "--x", "(6,3,5)", "--y", "(7,2,9)",
                       "--kind", "comparable")
    assert code == 1
    assert out == ("comparable: false\n"
                   "witness: not below at coordinate 2, "
                   "not above at coordinate 1\n")


def test_region_listing(capsys):
    code, out, _ = run(capsys, "region", "--lattice", "chain:2",
                       "--x", "(0,1)", "--kind", "g-comonotone")
    assert code == 0
    assert out == ("region g-comonotone around (0,1): 3 vectors\n"
                   "(0,0)\n(0,1)\n(1,1)\n")


# -- lattice-validate ---------------------------------------------------


def test_lattice_validate_emits_a_reparsable_file(capsys, n5):
    code, out, _ = run(capsys, "lattice-validate",
                       "--lattice", "builtin:N5", "--emit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lattice N5: 5 elements, bottom 0, top 1"
    assert lines[1] == "distributive: false"
    assert lines[-1] == "valid lattice"
    emitted = "\n".join(lines[2:-1]) + "\n"
    assert same_structure(parse_lattice(emitted), n5)


def test_lattice_validate_rejects_a_cover_cycle(capsys, files):
    code, out, _ = run(capsys, "lattice-validate",
                       "--lattice", "file:%s" % files["cyc.lat"])
    assert code == 1
    assert out == "invalid lattice: cover cycle: a < b < a\n"


# -- sugeno -------------------------------------------------------------


def test_sugeno_both_forms_agree(capsys, files):
    code, out, _ = run(capsys, "sugeno", "--lattice", "chain:3",
                       "--capacity", files["med.cap"], "--x", "(2,1)")
    assert code == 0
    assert out == "sup_of_meets: 1\ninf_of_joins: 1\nforms agree: true\n"


def test_sugeno_single_form(capsys, files):
    code, out, _ = run(capsys, "sugeno", "--lattice", "chain:3",
                       "--capacity", files["med.cap"], "--x", "(2,1)",
                       "--form", "sup")
    assert (code, out) == (0, "sup_of_meets: 1\n")


def test_sugeno_forms_split_on_the_pentagon(capsys, files):
    code, out, _ = run(capsys, "sugeno", "--lattice", "builtin:N5",
                       "--capacity", files["split.cap"], "--x", "(c,b)")
    assert code == 1
    assert out == "sup_of_meets: a\ninf_of_joins: b\nforms agree: false\n"


def test_sugeno_emit_table_reparses(capsys, files, chain3):
    code, out, _ = run(capsys, "sugeno", "--lattice", "chain:3",
                       "--capacity", files["med.cap"], "--x", "(2,1)",
                       "--form", "sup", "--emit-table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sup_of_meets: 1"
    table = parse_table("\n".join(lines[1:]) + "\n", chain3)
    med = validate_capacity(chain3, 2, (0, 1, 1, 2), name="med")
    assert table == sugeno_table(med)


# -- axioms -------------------------------------------------------------


def test_axioms_integral_is_consistent(capsys, files):
    code, out, _ = run(capsys, "axioms", "--lattice", "chain:3",
                       "--table", files["med.tbl"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table su_med"
    assert "consistent: true" in lines
    assert all(": true (pairs" in line for line in lines
               if line.startswith("axiom "))


def test_axioms_step_table_report(capsys, files):
    code, out, _ = run(capsys, "axioms", "--lattice", "chain:3",
                       "--table", files["h.tbl"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "table h"
    assert "axiom idempotent: false (pairs 2)  fails at c=1" in lines
    assert ("axiom boolean_inf_homogeneous: false (pairs 6)  "
            "fails at c=1, x=(0,2)") in lines
    assert "axiom comonotone_supremal: true (pairs 36)" in lines
    assert "axiom g_comonotone_supremal: true (pairs 38)" in lines
    assert ("condition comonotone_supremal & comonotone_infimal: true"
            in lines)
    assert ("condition inf_homogeneous & g_comonotone_supremal: false"
            in lines)
    assert lines[-2] == "consistent: false"
    assert lines[-1] == "pairs_checked_total: 196"


# -- recognize ----------------------------------------------------------


def test_recognize_step_table_boolean_method(capsys, files):
    code, out, _ = run(capsys, "recognize", "--lattice", "chain:3",
                       "--table", files["h.tbl"])
    assert code == 1
    assert out == ("verdict: not_sugeno\n"
                   "witness: boolean_inf_homogeneous fails at c=1, x=(0,2): "
                   "f(c^x)=2, c^f(x)=1\n"
                   "method: boolean\n"
                   "pairs_checked: 6\n"
                   "verification_points: 0\n")


def test_recognize_step_table_direct_method(capsys, files):
    code, out, _ = run(capsys, "recognize", "--lattice", "chain:3",
                       "--table", files["h.tbl"], "--method", "direct")
    assert code == 1
    assert out == ("verdict: not_sugeno\n"
                   "witness: f(0,1)=2 but the recovered capacity "
                   "integrates to 1\n"
                   "method: direct\n"
                   "pairs_checked: 3\n"
                   "verification_points: 0\n")


def test_recognize_integral_table(capsys, files, chain3):
    code, out, _ = run(capsys, "recognize", "--lattice", "chain:3",
                       "--table", files["med.tbl"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: sugeno"
    cut = lines.index("method: boolean")
    recovered = parse_capacity("\n".join(lines[1:cut]) + "\n", chain3)
    assert recovered == validate_capacity(chain3, 2, (0, 1, 1, 2))
    assert "pairs_checked: 24" in lines
    assert "verification_points: 18" in lines


# -- theorem-suite ------------------------------------------------------


def test_suite_four_equivalences_on_the_square(capsys):
    code, out, _ = run(capsys, "theorem-suite", "thm2",
                       "--lattice", "boolean:2", "--arity", "2")
    assert code == 0
    assert out.splitlines()[0] == "thm2: pass (256 cases)"


def test_suite_duality_search_on_the_pentagon(capsys):
    code, out, _ = run(capsys, "theorem-suite", "thm1",
                       "--lattice", "builtin:N5", "--arity", "2")
    assert code == 0
    assert out.splitlines()[0] == "thm1: pass (625 cases)"
    assert "32 divergent pairs, first x=(0,b) y=(c,a)" in out


def test_lemmas_record_the_distributive_only_lemmas_on_the_pentagon(capsys):
    code, out, _ = run(capsys, "theorem-suite", "lemmas",
                       "--lattice", "builtin:N5", "--arity", "2")
    assert code == 0
    assert out == (
        "lemmas: pass (810 cases)\n"
        "  relation inclusions checked on 625 pairs\n"
        "  constant-vector lemma checked on 125 pairs\n"
        "  implication lemmas checked on 50 sampled tables\n"
        "  integral compliance checked on 10 seeded capacities\n"
        "  non-distributive lattice: 4 constant-vector failures, first: "
        "constant vector (a,a) not g-comonotone with (b,c) (recorded)\n"
        "  non-distributive lattice: 38 integral-axiom failures, first: "
        "integral of (0, 3, 3, 4) fails inf_homogeneous (recorded)\n")


@pytest.mark.parametrize("spec, cases, pairs, constant", [
    ("chain:3", 168, 81, 27), ("boolean:2", 380, 256, 64)])
def test_lemmas_on_distributive_lattices(capsys, spec, cases, pairs,
                                         constant):
    code, out, _ = run(capsys, "theorem-suite", "lemmas",
                       "--lattice", spec, "--arity", "2")
    assert code == 0
    assert out == (
        "lemmas: pass (%d cases)\n"
        "  relation inclusions checked on %d pairs\n"
        "  constant-vector lemma checked on %d pairs\n"
        "  implication lemmas checked on 50 sampled tables\n"
        "  integral compliance checked on 10 seeded capacities\n"
        % (cases, pairs, constant))


def test_suite_all_reports_the_census_divergence(capsys):
    code, out, _ = run(capsys, "theorem-suite", "all",
                       "--lattice", "chain:3", "--arity", "2")
    assert code == 1
    lines = out.splitlines()
    assert "thm3: FAIL (136 cases)" in lines
    assert any("CONDITIONS DISAGREE on 18 tables" in line for line in lines)
    assert "prop1: pass (136 cases)" in lines
    assert "example1: pass (81 cases)" in lines


def test_suite_all_skips_example1_on_a_short_chain_at_arity_three(capsys):
    code, out, _ = run(capsys, "theorem-suite", "all",
                       "--lattice", "chain:3", "--arity", "3")
    assert code == 0
    lines = out.splitlines()
    assert "example1: skip (0 cases)" in lines
    assert ("  skipped: example1 at arity 3 needs a chain of at least four "
            "elements; chain3 has 3") in lines
    code, _, err = run(capsys, "theorem-suite", "example1",
                       "--lattice", "chain:2", "--arity", "3")
    assert code == 2
    assert "at least four elements" in err


def test_suite_example1_witness_on_the_four_chain(capsys):
    code, out, _ = run(capsys, "theorem-suite", "example1",
                       "--lattice", "chain:4", "--arity", "3")
    assert code == 0
    assert out == ("example1: pass (487 cases)\n"
                   "  strictness witness: y=(2,1,2) is g-comonotone with "
                   "x=(0,1,3) yet neither comonotone nor comparable\n")


# -- bench --------------------------------------------------------------


def test_bench_three_chain_pair(capsys):
    code, out, _ = run(capsys, "bench", "--lattice", "chain:3",
                       "--arity", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["3", "2", "12", "27", "36", "38", "9/4"]
    assert lines[-2].startswith("note: boolean_pairs counts k*2^n")


# -- failure handling ---------------------------------------------------


# The four theorem-suite rows of the benchmark at fixed seeds: exit code
# and the whole report, byte for byte.
_PINNED_SUITES = {
    ('boolean:2', 3, 5): (0, (
        'thm1: pass (4096 cases)\n'
        '  distributive lattice: expecting full agreement\n'
        'thm2: pass (4096 cases)\n'
        '  all four conditions agree on every pair\n'
        'thm3: skip (0 cases)\n'
        '  skipped: domain of 64 points exceeds the exhaustive cap of '
        '9\n'
        'prop1: skip (0 cases)\n'
        '  skipped: prop1 applies to chains; boolean2 is not a chain\n'
        'example1: skip (0 cases)\n'
        '  skipped: example1 applies to chains; boolean2 is not a '
        'chain\n'
        'lemmas: pass (4412 cases)\n'
        '  relation inclusions checked on 4096 pairs\n'
        '  constant-vector lemma checked on 256 pairs\n'
        '  implication lemmas checked on 50 sampled tables\n'
        '  integral compliance checked on 10 seeded capacities\n'
    )),
    ('chain:4', 3, 6): (0, (
        'thm1: pass (4096 cases)\n'
        '  distributive lattice: expecting full agreement\n'
        'thm2: pass (4096 cases)\n'
        '  all four conditions agree on every pair\n'
        'thm3: skip (0 cases)\n'
        '  skipped: domain of 64 points exceeds the exhaustive cap of '
        '9\n'
        'prop1: skip (0 cases)\n'
        '  skipped: domain of 64 points exceeds the exhaustive cap of '
        '9\n'
        'example1: pass (487 cases)\n'
        '  strictness witness: y=(2,1,2) is g-comonotone with '
        'x=(0,1,3) yet neither comonotone nor comparable\n'
        'lemmas: pass (4412 cases)\n'
        '  relation inclusions checked on 4096 pairs\n'
        '  constant-vector lemma checked on 256 pairs\n'
        '  implication lemmas checked on 50 sampled tables\n'
        '  integral compliance checked on 10 seeded capacities\n'
    )),
    ('builtin:N5', 3, 0): (0, (
        'thm1: pass (15625 cases)\n'
        '  non-distributive lattice: 1056 divergent pairs, first '
        'x=(0,0,b) y=(0,c,a) g=True dual=False (recorded)\n'
        'thm2: skip (0 cases)\n'
        '  skipped: thm2 asserts equivalence on distributive lattices '
        'only; run thm1 on N5 for the divergence search\n'
        'thm3: skip (0 cases)\n'
        '  skipped: thm3 runs on distributive lattices only\n'
        'prop1: skip (0 cases)\n'
        '  skipped: prop1 applies to chains; N5 is not a chain\n'
        'example1: skip (0 cases)\n'
        '  skipped: example1 applies to chains; N5 is not a chain\n'
        'lemmas: pass (16310 cases)\n'
        '  relation inclusions checked on 15625 pairs\n'
        '  constant-vector lemma checked on 625 pairs\n'
        '  implication lemmas checked on 50 sampled tables\n'
        '  integral compliance checked on 10 seeded capacities\n'
        '  non-distributive lattice: 48 constant-vector failures, '
        'first: constant vector (a,a,a) not g-comonotone with (0,b,c) '
        '(recorded)\n'
        '  non-distributive lattice: 50 integral-axiom failures, '
        'first: integral of (0, 3, 3, 3, 2, 4, 4, 4) fails '
        'inf_homogeneous (recorded)\n'
    )),
    ('chain:3', 2, 7): (1, (
        'thm1: pass (81 cases)\n'
        '  distributive lattice: expecting full agreement\n'
        'thm2: pass (81 cases)\n'
        '  all four conditions agree on every pair\n'
        'thm3: FAIL (136 cases)\n'
        '  136 aggregation tables, 9 capacities\n'
        '  condition inf_homogeneous & g_comonotone_supremal: 9 '
        'satisfiers\n'
        '  condition sup_homogeneous & g_comonotone_infimal: 9 '
        'satisfiers\n'
        '  condition inf_homogeneous & comonotone_supremal: 9 '
        'satisfiers\n'
        '  condition sup_homogeneous & comonotone_infimal: 9 '
        'satisfiers\n'
        '  condition comonotone_supremal & comonotone_infimal: 27 '
        'satisfiers\n'
        '  condition g_comonotone_supremal & g_comonotone_infimal: 27 '
        'satisfiers\n'
        '  condition boolean_sup_homogeneous & '
        'boolean_inf_homogeneous: 9 satisfiers\n'
        '  all seven conditions: 9 satisfiers\n'
        '  satisfiers equal the integral tables: True\n'
        '  each satisfier integrates its recovered capacity: True\n'
        '  CONDITIONS DISAGREE on 18 tables; first [0, 0, 0, 0, 0, 0, '
        '0, 0, 2] with verdicts 0000110\n'
        'prop1: pass (136 cases)\n'
        '  9 of 136 tables selected; equal to the 9 integral tables: '
        'True\n'
        'example1: pass (81 cases)\n'
        '  g-comonotone region = comonotone region union comparable '
        'region, for every x\n'
        'lemmas: pass (168 cases)\n'
        '  relation inclusions checked on 81 pairs\n'
        '  constant-vector lemma checked on 27 pairs\n'
        '  implication lemmas checked on 50 sampled tables\n'
        '  integral compliance checked on 10 seeded capacities\n'
    )),
}


@pytest.mark.parametrize("spec, arity, seed", sorted(_PINNED_SUITES),
                         ids=lambda v: str(v))
def test_suite_all_stdout_is_pinned(capsys, spec, arity, seed):
    code, out, _ = run(capsys, "theorem-suite", "all", "--lattice", spec,
                       "--arity", str(arity), "--seed", str(seed))
    assert (code, out) == _PINNED_SUITES[spec, arity, seed]


def test_unknown_element_is_a_usage_error(capsys):
    code, out, err = run(capsys, "relations", "--lattice", "chain:3",
                         "--x", "(9,1)", "--y", "(0,0)",
                         "--kind", "comonotone")
    assert (code, out) == (2, "")
    assert err == "error: --x: unknown element '9' in lattice chain3\n"


def test_invalid_capacity_reports_boundary_first(capsys, files):
    code, out, err = run(capsys, "sugeno", "--lattice", "chain:3",
                         "--capacity", files["bad.cap"], "--x", "(2,1)")
    assert (code, out) == (2, "")
    assert err == ("error: invalid capacity: boundary at {1,2}; "
                   "monotonicity at {1} < {1,2}\n")


def test_suite_refuses_nondistributive_equivalence(capsys):
    code, _, err = run(capsys, "theorem-suite", "thm2",
                       "--lattice", "builtin:N5", "--arity", "2")
    assert code == 2
    assert "run thm1 on N5 for the divergence search" in err


def test_region_respects_the_limit(capsys):
    code, _, err = run(capsys, "region", "--lattice", "chain:4",
                       "--x", "(0,1,2)", "--kind", "comonotone",
                       "--limit", "10")
    assert code == 2
    assert err == "error: 4^3 vectors exceed the limit of 10\n"


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "sugeno", "--lattice", "chain:2",
                       "--capacity", "no-such.cap", "--x", "(0,1)")
    assert code == 2
    assert err.startswith("error: no-such.cap: cannot read file")


def test_arity_flag_must_match_the_file(capsys, files):
    code, _, err = run(capsys, "axioms", "--lattice", "chain:3",
                       "--table", files["h.tbl"], "--arity", "3")
    assert code == 2
    assert "table arity 2 does not match --arity 3" in err


@pytest.fixture(scope="session")
def oversized(tmp_path_factory):
    root = tmp_path_factory.mktemp("oversized")
    (root / "huge.cap").write_text("capacity m over chain3 arity 62\n",
                                   encoding="utf-8")
    (root / "huge.tbl").write_text("table f over chain3 arity 40\n",
                                   encoding="utf-8")
    (root / "xdir").mkdir()
    return {"huge_cap": str(root / "huge.cap"),
            "huge_tbl": str(root / "huge.tbl"),
            "missing_lat": str(root / "none.lat"),
            "missing_in_xdir": str(root / "xdir" / "none.lat")}


def _cap_memory():
    # a regression that allocates without bound fails fast instead
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, prefix", [
    (["bench", "--lattice", "chain:2", "--arity", "40"], "error:"),
    (["sugeno", "--lattice", "chain:3", "--capacity", "{huge_cap}",
      "--x", "(0)"], "error:"),
    (["axioms", "--lattice", "chain:3", "--table", "{huge_tbl}"], "error:"),
    (["lattice-validate", "--lattice", "file:{missing_lat}"], "error:"),
    (["lattice-validate", "--lattice", "prod:chain:2xfile:{missing_in_xdir}"],
     "error:"),
    (["bench", "--lattice", "chain:2", "--arity", "-1"], "usage:"),
    (["region", "--lattice", "chain:3", "--x", "(0,1)",
      "--kind", "comonotone", "--limit", "-5"], "usage:"),
    (["lattice-validate", "--lattice", "chain:100000"], "error:"),
    (["lattice-validate", "--lattice", "prod:" + "x".join(["chain:2"] * 10)],
     "error:"),
    (["region", "--lattice", "chain:128", "--arity", "2",
      "--kind", "g-comonotone", "--x", "(0,1)"], "error:"),
], ids=["bench-arity-40", "capacity-arity-62", "table-arity-40",
        "missing-lattice-file", "missing-file-in-product", "negative-arity",
        "negative-limit", "huge-chain", "huge-product", "huge-letter-table"])
def test_malformed_input_exits_two(oversized, argv, prefix):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli",
         *(arg.format_map(oversized) for arg in argv)],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
    assert proc.returncode == 2
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


def test_bad_usage_exits_two(capsys):
    for argv in ([], ["relations", "--lattice", "chain:3"],
                 ["no-such-command"],
                 ["theorem-suite", "thm9", "--lattice", "chain:3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


# -- determinism and wiring ---------------------------------------------


def test_reports_are_byte_deterministic(capsys, files):
    first = run(capsys, "axioms", "--lattice", "chain:3",
                "--table", files["h.tbl"])
    second = run(capsys, "axioms", "--lattice", "chain:3",
                 "--table", files["h.tbl"])
    assert first == second
    first = run(capsys, "region", "--lattice", "chain:3",
                "--x", "(0,2)", "--kind", "comonotone")
    second = run(capsys, "region", "--lattice", "chain:3",
                 "--x", "(0,2)", "--kind", "comonotone")
    assert first == second


def test_benchmark_tracer_installs_and_uninstalls():
    """The benchmark's tracer wraps package names by module and name
    (importing the CLI above binds every module it patches); a name it
    wraps that a refactor unbinds fails here, not only in a traced
    benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {(m, n): getattr(getattr(ls, m), n)
              for m, names in tracing._PATCHES.items() for n in names}
    tracer = tracing.Tracer()
    tracer.install(ls)
    try:
        assert all(getattr(getattr(ls, m), n) is not fn
                   for (m, n), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(ls, m), n) is fn
               for (m, n), fn in before.items())


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli",
         "relations", "--lattice", "chain:11",
         "--x", "(6,3,5)", "--y", "(7,2,9)", "--kind", "g-comonotone"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "g-comonotone: true\n"
