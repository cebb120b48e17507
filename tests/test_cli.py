import ast
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
    put("droop.tbl", format_table(FunctionTable(c3, 2, [0] + [2] * 7 + [1],
                                                name="droop")))
    med = validate_capacity(c3, 2, (0, 1, 1, 2), name="med")
    put("med.cap", format_capacity(med))
    put("med.tbl", format_table(sugeno_table(med)))
    # two tables that are not monotone: scrambled values, and the med
    # integral with f(2,1) pushed below f(2,0)
    put("jumble.tbl", format_table(FunctionTable(
        c3, 2, [1, 0, 2, 2, 1, 0, 0, 2, 1], name="jumble")))
    put("sag.tbl", format_table(FunctionTable(
        c3, 2, [0, 1, 1, 1, 1, 1, 1, 0, 2], name="sag")))
    put("bad.cap", ("capacity m over chain3 arity 2\n"
                    "{1} -> 2\n{2} -> 0\n{1,2} -> 1\n"))
    put("split.cap", format_capacity(Capacity(ls.n5(), 2, (0, 0, 1, 4),
                                              name="w")))
    m3 = ls.m3()
    integral = sugeno_table(ls.sample_capacities(m3, 2, 1, seed=0)[0])
    put("step_m3.tbl", format_table(FunctionTable(
        m3, 2, [v if v == m3.bottom else m3.top for v in integral.values],
        name="step")))
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


@pytest.mark.parametrize("kind,refusal", [
    ("subsetwise-join", "28 coordinate pairs"),
    ("g-comonotone", "28 coordinate pairs")])
def test_relations_honours_limit(capsys, kind, refusal):
    argv = ("relations", "--lattice", "chain:2", "--kind", kind,
            "--x", "(0,0,0,0,0,0,0,0)", "--y", "(1,1,1,1,1,1,1,1)")
    assert run(capsys, *argv, "--limit", "5") == (
        2, "", "error: %s exceed the limit of 5\n" % refusal)
    assert run(capsys, *argv) == (0, "%s: true\n" % kind, "")


@pytest.mark.parametrize("spec, kind, x, y", [
    ("chain:2", "subsetwise-join", "(0,1)", "(1,0)"),
    ("builtin:M3", "subsetwise-meet", "(a,b,c)", "(b,c,a)")])
def test_relations_subsetwise_witness(capsys, spec, kind, x, y):
    assert run(capsys, "relations", "--lattice", spec, "--kind", kind,
               "--x", x, "--y", y) == (
        1, "%s: false\nwitness: subset {1,2}\n" % kind, "")


def test_region_listing(capsys):
    code, out, _ = run(capsys, "region", "--lattice", "chain:2",
                       "--x", "(0,1)", "--kind", "g-comonotone")
    assert code == 0
    assert out == ("region g-comonotone around (0,1): 3 vectors\n"
                   "(0,0)\n(0,1)\n(1,1)\n")


_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("spec, kind, x, golden", [
    ("builtin:M3", "subsetwise-meet", "(0,0,a)",
     "region_m3_subsetwise_meet_00a.txt"),
    ("builtin:N5", "subsetwise-meet", "(0,a,c)",
     "region_n5_subsetwise_meet_0ac.txt"),
    ("builtin:N5", "subsetwise-join", "(0,a,c)",
     "region_n5_subsetwise_join_0ac.txt")])
def test_subsetwise_region_matches_its_golden_listing(capsys, spec, kind, x,
                                                      golden):
    """Subsetwise regions on the non-distributive lattices, listed in
    full as recorded."""
    with open(os.path.join(_GOLDEN, golden), encoding="utf-8") as handle:
        expected = handle.read()
    assert run(capsys, "region", "--lattice", spec, "--kind", kind,
               "--x", x) == (0, expected, "")


@pytest.mark.parametrize("spec, kind, x, count", [
    ("builtin:M3", "subsetwise-meet", "(0,0,a)", 65),
    ("builtin:M3", "dual-g-comonotone", "(0,0,a)", 67),
    ("builtin:N5", "subsetwise-meet", "(0,a,c)", 39),
    ("builtin:N5", "dual-g-comonotone", "(0,a,c)", 41),
    ("chain:128", "subsetwise-join", "(0,127)", 8256)])
def test_region_header_counts_every_listed_vector(capsys, spec, kind, x,
                                                  count):
    """On M3 and N5 the subsetwise-meet region is smaller than the dual
    g-comonotone one around the same x."""
    code, out, err = run(capsys, "region", "--lattice", spec, "--kind",
                         kind, "--x", x)
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[0] == "region %s around %s: %d vectors" % (kind, x, count)
    assert len(lines) == count + 1


def test_a_reader_closing_stdout_early_gets_no_traceback():
    """Output into a pipe whose reader has gone away ends with exit 2 and
    an empty stderr.  The listing is about 2 MB, more than any pipe
    buffer holds, so the write after the reader closes must fail."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lattice_sugeno.cli", "region", "--lattice",
         "chain:56", "--kind", "comparable", "--x", "(0,0,0)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
    try:
        assert proc.stdout.readline() == (
            b"region comparable around (0,0,0): 175616 vectors\n")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert (code, err) == (2, b"")


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


@pytest.mark.parametrize("text, message", [
    ("lattice c\nelements\ncover 0 1\n",
     "error: %s:2: elements line wants at least one element\n"),
    ("lattice c\nelements 0 1\nbottom\ncover 0 1\n",
     "error: %s:3: bottom line wants exactly one element\n"),
    ("lattice c\nelements 0 1\ntop 1\ntop 1\ncover 0 1\n",
     "error: %s:4: duplicate top line\n")],
    ids=["empty-elements", "bare-bottom", "duplicate-top"])
def test_lattice_validate_names_the_bad_line(capsys, tmp_path, text,
                                             message):
    path = tmp_path / "c.lat"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "lattice-validate", "--lattice",
               "file:%s" % path) == (2, "", message % path)


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


def test_axioms_pair_witnesses(capsys, files):
    code, out, _ = run(capsys, "axioms", "--lattice", "builtin:M3",
                       "--table", files["step_m3.tbl"])
    assert code == 0
    lines = out.splitlines()
    assert lines[7:11] == [
        "axiom comonotone_supremal: false (pairs 21)  "
        "fails at x=(0,a), y=(0,b)",
        "axiom comonotone_infimal: false (pairs 43)  "
        "fails at x=(0,c), y=(a,a)",
        "axiom g_comonotone_supremal: false (pairs 27)  "
        "fails at x=(0,a), y=(0,b)",
        "axiom g_comonotone_infimal: false (pairs 60)  "
        "fails at x=(0,c), y=(a,a)"]
    assert lines[-2:] == ["consistent: true", "pairs_checked_total: 281"]


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


@pytest.mark.parametrize("command", ["axioms", "recognize"])
def test_non_aggregation_table_is_a_negative_verdict(capsys, files, command):
    code, out, err = run(capsys, command, "--lattice", "chain:3",
                         "--table", files["droop.tbl"])
    assert (code, err) == (1, "")
    assert out == ("not an aggregation function: table droop is not an "
                   "aggregation function\n")


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


def test_suite_duality_counts_both_orders_at_arity_four(capsys):
    """On N5 at arity 4, past the arities the random sweeps reach, the
    divergences found with x lex <= y are counted in both orders, and
    the first is the lexicographically first pair."""
    assert run(capsys, "theorem-suite", "thm1", "--lattice", "builtin:N5",
               "--arity", "4") == (0, (
                   "thm1: pass (390625 cases)\n"
                   "  non-distributive lattice: 22688 divergent pairs, "
                   "first x=(0,0,0,b) y=(0,0,c,a) g=True dual=False "
                   "(recorded)\n"), "")


@pytest.mark.parametrize("spec, cases", [
    ("chain:3", 6561), ("boolean:2", 65536)])
def test_suite_four_equivalences_on_cliques_of_four_letters(capsys, spec,
                                                            cases):
    """At arity 4 thm2 folds cliques of up to four letters; the lines are
    those of the walk over every pair that the letters replaced."""
    assert run(capsys, "theorem-suite", "thm2", "--lattice", spec,
               "--arity", "4") == (0, (
                   "thm2: pass (%d cases)\n"
                   "  all four conditions agree on every pair\n" % cases), "")


def test_suite_duality_on_m3_finds_no_divergence(capsys):
    """M3 is not distributive, yet its g and dual letter tables are equal,
    so no pair diverges and nothing is walked."""
    assert run(capsys, "theorem-suite", "thm1", "--lattice", "builtin:M3",
               "--arity", "3") == (0, (
                   "thm1: pass (15625 cases)\n"
                   "  non-distributive lattice: no divergence found "
                   "(recorded)\n"), "")


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


def test_lemmas_record_the_distributive_only_lemmas_on_the_diamond(capsys):
    code, out, _ = run(capsys, "theorem-suite", "lemmas",
                       "--lattice", "builtin:M3", "--arity", "3")
    assert code == 0
    assert out == (
        "lemmas: pass (16310 cases)\n"
        "  relation inclusions checked on 15625 pairs\n"
        "  constant-vector lemma checked on 625 pairs\n"
        "  implication lemmas checked on 50 sampled tables\n"
        "  integral compliance checked on 10 seeded capacities\n"
        "  non-distributive lattice: 72 constant-vector failures, first: "
        "constant vector (a,a,a) not g-comonotone with (0,b,c) (recorded)\n"
        "  non-distributive lattice: 60 integral-axiom failures, first: "
        "integral of (0, 3, 3, 3, 2, 4, 4, 4) fails inf_homogeneous "
        "(recorded)\n")


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


def test_suite_all_ends_on_the_refusal_of_thm1(capsys):
    """thm1 applies to every lattice, so under ``all`` its refusal ends
    the run instead of becoming a "skipped:" line; lemmas does the same,
    in the one-element rows of test_malformed_input_exits_two."""
    assert run(capsys, "theorem-suite", "all", "--lattice", "chain:3",
               "--arity", "2", "--limit", "10") == (
        2, "", "error: 3^4 vector pairs exceed the limit of 10\n")


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


_BENCH_MED = (
    "k n boolean_pairs full_pairs comonotone_pairs g_comonotone_pairs "
    "reduction_factor\n"
    "3 2            12         27               36                 38"
    "              9/4\n"
    "\n"
    "note: boolean_pairs counts k*2^n homogeneity identities over the "
    "{bottom,top}^n cube;\n"
    "      the comonotone/g-comonotone columns count related vector pairs "
    "and grow past k*2^n.\n")


@pytest.mark.parametrize("flag, name", [("--table", "med.tbl"),
                                        ("--capacity", "med.cap")])
def test_bench_reads_a_table_or_a_capacity(capsys, files, flag, name):
    assert run(capsys, "bench", "--lattice", "chain:3",
               flag, files[name]) == (0, _BENCH_MED, "")


def _bench_row(counts):
    return _BENCH_MED.replace(
        "3 2            12         27               36                 38",
        "3 2 %13d %10d %16d %18d" % counts)


@pytest.mark.parametrize("name, counts", [
    ("jumble.tbl", (1, 1, 2, 2)),
    ("sag.tbl", (12, 17, 22, 14)),
])
def test_bench_on_a_non_monotone_table(capsys, files, name, counts):
    """bench reads any table: on one that is not monotone the supremal
    counts run to the first failing pair, x <= y ones included, as
    they did before ordered pairs were left out of the kept plans."""
    assert run(capsys, "bench", "--lattice", "chain:3",
               "--table", files[name]) == (0, _bench_row(counts), "")


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
    # 11^7 points to tabulate from a valid 128-line capacity
    (root / "chain11.cap").write_text(ls.format_capacity(
        ls.validate_capacity(ls.chain(11), 7, [0] + [10] * 127)),
        encoding="utf-8")
    # nonzero digits: a position built from all 10^6 would be huge
    (root / "long.tbl").write_text(
        "table f over chain3 arity 2\n(%s) -> 0\n" % ",".join(["1"] * 10 ** 6),
        encoding="utf-8")
    # one point each: only the 2^n subsets of their checks are large
    for arity in (24, 30):
        (root / ("one%d.tbl" % arity)).write_text(format_table(
            FunctionTable(ls.chain(1), arity, [0])), encoding="utf-8")
    return {"huge_cap": str(root / "huge.cap"),
            "huge_tbl": str(root / "huge.tbl"),
            "chain11_cap": str(root / "chain11.cap"),
            "long_tbl": str(root / "long.tbl"),
            "one24_tbl": str(root / "one24.tbl"),
            "one30_tbl": str(root / "one30.tbl"),
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
    (["theorem-suite", "thm2", "--lattice", "chain:4", "--arity", "6"],
     "error:"),
    (["theorem-suite", "lemmas", "--lattice", "chain:2", "--arity", "16"],
     "error:"),
    (["theorem-suite", "lemmas", "--lattice", "chain:57", "--arity", "1"],
     "error: 57^4 letter pairs exceed the limit of 10000000\n"),
    (["theorem-suite", "lemmas", "--lattice", "chain:57", "--arity", "2"],
     "error: 57^4 vector pairs exceed the limit of 10000000\n"),
    (["relations", "--lattice", "chain:2", "--kind", "g-comonotone",
      "--x", "(%s)" % ",".join(["0"] * 20000), "--y",
      "(%s)" % ",".join(["1"] * 20000)], "error:"),
    (["sugeno", "--lattice", "chain:11", "--capacity", "{chain11_cap}",
      "--x", "(0,0,0,0,0,0,0)", "--emit-table"], "error:"),
    (["axioms", "--lattice", "chain:3", "--table", "{long_tbl}"], "error:"),
    (["region", "--lattice", "chain:2", "--kind", "subsetwise-join",
      "--x", "(%s)" % ",".join(["0"] * 16)], "error:"),
    (["theorem-suite", "example1", "--lattice", "chain:2", "--arity", "23"],
     "error:"),
    (["region", "--lattice", "chain:2", "--arity", "2",
      "--kind", "comonotone", "--x", "(0,0,0)"],
     "error: --x: vector arity 3 does not match --arity 2"),
    (["relations", "--lattice", "chain:2", "--arity", "3",
      "--kind", "comonotone", "--x", "(0,0,0)", "--y", "(0,1)"],
     "error: --y: vector arity 2 does not match --arity 3"),
    (["theorem-suite", "thm3", "--lattice", "chain:1", "--arity", "30"],
     "error: 2^30 subsets exceed the limit of 10000000\n"),
    (["theorem-suite", "prop1", "--lattice", "chain:1", "--arity", "30"],
     "error: 2^30 subsets exceed the limit of 10000000\n"),
    (["theorem-suite", "lemmas", "--lattice", "chain:1", "--arity", "40"],
     "error: 2^40 subsets exceed the limit of 10000000\n"),
    (["theorem-suite", "all", "--lattice", "chain:1", "--arity", "40"],
     "error: 2^40 subsets exceed the limit of 10000000\n"),
    (["theorem-suite", "lemmas", "--lattice", "chain:1", "--arity", "2000"],
     "error: 2^2000 subsets exceed the limit of 10000000\n"),
    (["axioms", "--lattice", "chain:1", "--table", "{one24_tbl}"],
     "error: 2^24 subsets exceed the limit of 10000000\n"),
    (["axioms", "--lattice", "chain:1", "--table", "{one30_tbl}"],
     "error: 2^30 subsets exceed the limit of 10000000\n"),
    (["recognize", "--lattice", "chain:1", "--table", "{one24_tbl}"],
     "error: 2^24 subsets exceed the limit of 10000000\n"),
    (["bench", "--lattice", "chain:1", "--table", "{one30_tbl}"],
     "error: 2^30 subsets exceed the limit of 10000000\n"),
], ids=["bench-arity-40", "capacity-arity-62", "table-arity-40",
        "missing-lattice-file", "missing-file-in-product", "negative-arity",
        "negative-limit", "huge-chain", "huge-product", "huge-letter-table",
        "huge-thm2", "huge-lemmas", "lemmas-letter-pairs",
        "lemmas-vector-pairs", "huge-pairwise",
        "huge-emit-table", "long-table-line", "huge-region-subsetwise",
        "huge-example1", "region-arity-flag", "relations-arity-flag",
        "one-element-thm3", "one-element-prop1", "one-element-lemmas",
        "one-element-all", "one-element-lemmas-2000",
        "one-element-axioms-24", "one-element-axioms-30",
        "one-element-recognize", "one-element-bench-table"])
def test_malformed_input_exits_two(oversized, argv, prefix):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli",
         *(arg.format_map(oversized) for arg in argv)],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


def test_one_element_lattice_answers_at_two_thousand_coordinates():
    """On a one-element lattice the anchor trie is 2,000 digits deep and
    is walked without recursion: the region and thm1 answer inside the
    subprocess timeout and the memory cap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    zeros = "(%s)" % ",".join(["0"] * 2000)
    for argv, expected in (
            (["region", "--lattice", "chain:1", "--kind", "comonotone",
              "--x", zeros],
             "region comonotone around %s: 1 vectors\n%s\n"
             % (zeros, zeros)),
            (["theorem-suite", "thm1", "--lattice", "chain:1", "--arity",
              "2000"],
             "thm1: pass (1 cases)\n"
             "  distributive lattice: expecting full agreement\n")):
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_sugeno.cli", *argv],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, expected, "")


def test_long_subsetwise_sweep_holds():
    """Two 22-coordinate vectors, whose 2^22 - 1 subsets all hold, are
    decided by one fold closure, well inside the subprocess timeout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    zeros = "(%s)" % ",".join(["0"] * 22)
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli", "relations",
         "--lattice", "chain:2", "--kind", "subsetwise-join",
         "--x", zeros, "--y", zeros],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
    assert proc.returncode == 0
    assert proc.stdout == "subsetwise-join: true\n"


def test_long_subsetwise_inputs_answer():
    """The subsetwise kinds take the coordinate-pair guard, so 40 and
    2,000 coordinates answer inside the subprocess timeout and the
    memory cap, a failing triple far apart included: on M3 the letters
    (a,a), (b,1) and (1,c) fail only together."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))

    def vector(n, letters):
        return "(%s)" % ",".join(letters.get(i, "0") for i in range(1, n + 1))

    cases = [(["chain:2", "subsetwise-join", vector(n, {}),
               vector(n, dict.fromkeys(range(1, n + 1), "1"))],
              0, "subsetwise-join: true\n") for n in (40, 2000)]
    cases.append((["builtin:M3", "subsetwise-join",
                   vector(2000, {101: "a", 1001: "b", 2000: "1"}),
                   vector(2000, {101: "a", 1001: "1", 2000: "c"})],
                  1, "subsetwise-join: false\n"
                     "witness: subset {101,1001,2000}\n"))
    for (spec, kind, x, y), code, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_sugeno.cli", "relations",
             "--lattice", spec, "--kind", kind, "--x", x, "--y", y],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, expected, "")


def test_wide_comparable_region_is_built_in_linear_time():
    """The order rows of a 10^7-point domain are grown coordinate by
    coordinate, inside the timeout and the memory cap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli", "region",
         "--lattice", "chain:10", "--arity", "7", "--kind", "comparable",
         "--x", "(0,9,0,9,0,9,0)"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "region comparable around (0,9,0,9,0,9,0): 10999 vectors"
    assert len(lines) == 11000
    assert lines[1] == "(0,0,0,0,0,0,0)" and lines[-1] == "(9,9,9,9,9,9,9)"


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


def _benchmark_tracing():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_uninstalls():
    """The benchmark's tracer wraps package names by module and name
    (importing the CLI above binds every module it patches); a name it
    wraps that a refactor unbinds fails here, not only in a traced
    benchmark run."""
    tracing = _benchmark_tracing()
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


def test_benchmark_tracer_names_read_nowhere_are_pinned():
    """The names the benchmark's tracer wraps that their own module
    never reads, found by AST, are exactly the five bound only for it.
    A refactor that drops the last call site of any other wrapped name
    fails here, instead of leaving its per-layer metric at zero."""
    unread = set()
    for module, names in _benchmark_tracing()._PATCHES.items():
        with open(getattr(ls, module).__file__) as source:
            tree = ast.parse(source.read())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread |= {(module, n) for n in names if n not in read}
    assert unread == {("axioms", "sugeno"), ("axioms", "relation_check"),
                      ("axioms", "relation_pairs"),
                      ("suites", "relation_check"),
                      ("recognizer", "sugeno")}


def test_benchmark_tracer_times_capacity_recovery(capsys, files):
    """recognize recovers its capacity through the public
    recover_capacity, so the benchmark's recover span is not empty."""
    tracer = _benchmark_tracing().Tracer()
    tracer.install(ls)
    try:
        code, _, _ = run(capsys, "recognize", "--lattice", "chain:3",
                         "--table", files["h.tbl"])
    finally:
        tracer.uninstall()
    assert code in (0, 1)
    assert tracer.metrics(1)["recognizer.recover_ms"]["value"] > 0


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sugeno.cli",
         "relations", "--lattice", "chain:11",
         "--x", "(6,3,5)", "--y", "(7,2,9)", "--kind", "g-comonotone"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout == "g-comonotone: true\n"
