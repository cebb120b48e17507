import pytest

import lattice_sugeno as ls
from lattice_sugeno import (
    Capacity,
    CyclicOrder,
    EnumerationTooLarge,
    FunctionTable,
    InvalidCapacity,
    LatticeMismatch,
    ParseError,
    RecognitionMethod,
    build_lattice,
    characterization_report,
    format_capacity,
    format_lattice,
    format_table,
    format_vector,
    parse_capacity,
    parse_lattice,
    parse_table,
    parse_vector,
    recognize,
    render_check_report,
    render_recognition,
    same_structure,
    sugeno_table,
    validate_capacity,
)

H_VALUES = [0] + [2] * 8


# -- lattice specs ------------------------------------------------------


def test_build_lattice_specs(chain4, bool3, prod23, n5, m3):
    assert same_structure(build_lattice("chain:4"), chain4)
    assert same_structure(build_lattice("boolean:3"), bool3)
    assert same_structure(build_lattice("prod:chain:2xchain:3"), prod23)
    assert build_lattice("prod:chain:2xchain:3").name == "chain2xchain3"
    assert same_structure(build_lattice("builtin:N5"), n5)
    assert same_structure(build_lattice("builtin:M3"), m3)


def test_prod_splits_only_where_a_factor_spec_begins(tmp_path, n5, m3):
    three = build_lattice("prod:boolean:1xbuiltin:M3xchain:2")
    assert same_structure(three, ls.product([ls.boolean_lattice(1), m3,
                                             ls.chain(2)]))
    folder = tmp_path / "xdir"
    folder.mkdir()
    path = folder / "n5.lat"
    path.write_text(format_lattice(n5), encoding="utf-8")
    # a file: factor takes the rest of the spec, x's in its path included
    built = build_lattice("prod:chain:2xfile:%s" % path)
    assert same_structure(built, ls.product([ls.chain(2), n5]))


def test_build_lattice_from_file(tmp_path, n5):
    path = tmp_path / "pentagon.lat"
    path.write_text(format_lattice(n5), encoding="utf-8")
    loaded = build_lattice("file:%s" % path)
    assert same_structure(loaded, n5)
    assert loaded.name == n5.name


@pytest.mark.parametrize("spec", [
    "prod:chain:2",          # a product needs two factors
    "builtin:Z",
    "pentagon",
    "chain:x",
    "chain:0",
    "boolean:-1",
    "file:no-such-dir/none.lat",
])
def test_bad_specs_raise(spec):
    with pytest.raises(ParseError):
        build_lattice(spec)


# -- lattice files ------------------------------------------------------


def test_lattice_file_round_trip(chain4, bool3, prod23, n5, m3):
    for L in (chain4, bool3, prod23, n5, m3):
        again = parse_lattice(format_lattice(L))
        assert again.name == L.name
        assert again.elements == L.elements
        assert same_structure(again, L)


def test_lattice_file_comments_and_blanks(chain2):
    text = ("# a two-element chain\n"
            "lattice chain2   # inline comment\n"
            "\n"
            "elements 0 1\n"
            "cover 0 1\n")
    assert same_structure(parse_lattice(text), chain2)


def test_declared_bound_mismatch_names_the_line():
    text = ("lattice c\n"
            "elements 0 1\n"
            "top 0\n"
            "cover 0 1\n")
    with pytest.raises(ParseError) as info:
        parse_lattice(text, path="c.lat")
    assert info.value.path == "c.lat"
    assert info.value.line == 3
    assert "declared top '0'" in info.value.bare_message


@pytest.mark.parametrize("text,fragment", [
    ("order c\nelements 0 1\ncover 0 1\n", "unknown directive"),
    ("lattice a b\nelements 0 1\ncover 0 1\n", "exactly one name"),
    ("lattice c\nlattice d\nelements 0 1\ncover 0 1\n", "duplicate lattice"),
    ("lattice c\nelements 0 1\nelements 0 1\ncover 0 1\n",
     "duplicate elements"),
    ("elements 0 1\ncover 0 1\n", "missing lattice line"),
    ("lattice c\ncover 0 1\n", "missing elements line"),
    ("lattice c\nelements 0 1\ncover 0\n", "cover line wants two"),
    ("lattice c\nelements 0 1\nbottom q\ncover 0 1\n",
     "not in the elements list"),
])
def test_malformed_lattice_files(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_lattice(text)
    assert fragment in info.value.bare_message


def test_cover_cycle_raises_structural_error():
    text = ("lattice bad\n"
            "elements 0 a b 1\n"
            "cover 0 a\n"
            "cover a b\n"
            "cover b a\n"
            "cover b 1\n")
    with pytest.raises(CyclicOrder):
        parse_lattice(text)


# -- vectors ------------------------------------------------------------


def test_vector_round_trip(chain3, prod23):
    for L, x in ((chain3, (0, 2, 1)), (prod23, (0, 5))):
        assert parse_vector(format_vector(L, x), L) == x
    assert parse_vector(" ( 0 , 2 ) ", chain3) == (0, 2)


@pytest.mark.parametrize("text", ["0,1", "()", "(0,9)", "(0;1)"])
def test_bad_vectors_raise(text, chain3):
    with pytest.raises(ParseError):
        parse_vector(text, chain3)


# -- capacity files -----------------------------------------------------


def test_capacity_round_trip(chain3, bool2):
    for L in (chain3, bool2):
        for m in ls.enumerate_capacities(L, 2):
            again = parse_capacity(format_capacity(m), L)
            assert again == m
            assert again.name == m.name


def test_capacity_defaults_for_empty_and_full(chain3):
    text = ("capacity m over chain3 arity 2\n"
            "{1} -> 1\n"
            "{2} -> 0\n")
    m = parse_capacity(text, chain3)
    assert m.values == (0, 1, 0, 2)


def test_capacity_header_and_body_errors(chain3):
    with pytest.raises(ParseError, match="empty capacity file"):
        parse_capacity("# nothing here\n", chain3)
    with pytest.raises(ParseError, match="header must read"):
        parse_capacity("capacity m on chain3 arity 2\n", chain3)
    with pytest.raises(LatticeMismatch):
        parse_capacity("capacity m over chain4 arity 2\n", chain3)
    base = "capacity m over chain3 arity 2\n"
    cases = [
        ("{1} 1\n", "expected '<subset> -> <element>'"),
        ("[1] -> 1\n", "subset must be"),
        ("{one} -> 1\n", "not an integer"),
        ("{3} -> 1\n", "out of range"),
        ("{1,1} -> 1\n", "repeated"),
        ("{1} -> 9\n", "unknown element"),
        ("{1} -> 1\n{1} -> 2\n", "assigned twice"),
    ]
    for body, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_capacity(base + body, chain3)


def test_capacity_missing_subset_at_higher_arity(chain3):
    text = ("capacity m over chain3 arity 3\n"
            "{1} -> 0\n{2} -> 0\n{3} -> 0\n"
            "{1,2} -> 1\n{1,3} -> 1\n")
    with pytest.raises(ParseError, match=r"missing value for subset \{2,3\}"):
        parse_capacity(text, chain3)


def test_capacity_validation_propagates(chain3):
    text = ("capacity m over chain3 arity 2\n"
            "{1} -> 2\n"
            "{2} -> 0\n"
            "{1,2} -> 1\n")
    with pytest.raises(InvalidCapacity, match="monotonicity"):
        parse_capacity(text, chain3)


# -- table files --------------------------------------------------------


def test_table_round_trip(chain3, n5):
    f = sugeno_table(validate_capacity(chain3, 2, (0, 1, 1, 2)))
    again = parse_table(format_table(f), chain3)
    assert again == f
    assert again.name == f.name
    g = FunctionTable(n5, 1, [0, 2, 2, 4, 4], name="step")
    assert parse_table(format_table(g), n5) == g


def test_step_corner_table_from_file(chain3):
    lines = ["table h over chain3 arity 2"]
    probe = FunctionTable(chain3, 2, H_VALUES)
    for x in probe.domain():
        lines.append("%s -> %s" % (format_vector(chain3, x),
                                   chain3.elements[probe(x)]))
    f = parse_table("\n".join(lines) + "\n", chain3)
    assert f == FunctionTable(chain3, 2, H_VALUES, name="h")
    assert f.name == "h"


def test_table_errors(chain3):
    head = "table f over chain3 arity 2\n"
    with pytest.raises(ParseError, match="empty table file"):
        parse_table("", chain3)
    with pytest.raises(LatticeMismatch):
        parse_table("table f over boolean2 arity 2\n", chain3)
    with pytest.raises(ParseError, match="3 coordinates, table wants 2"):
        parse_table(head + "(0,0,0) -> 0\n", chain3)
    with pytest.raises(ParseError, match="assigned twice"):
        parse_table(head + "(0,0) -> 0\n(0,0) -> 1\n", chain3)
    # refused before the 3^40-entry table is allocated
    with pytest.raises(EnumerationTooLarge,
                       match=r"^3\^40 points exceed the limit of 10000000$"):
        parse_table("table f over chain3 arity 40\n", chain3)


def test_missing_table_point_is_decoded(chain3):
    f = sugeno_table(validate_capacity(chain3, 2, (0, 1, 1, 2)))
    lines = [line for line in format_table(f).splitlines()
             if not line.startswith("(1,2)")]
    with pytest.raises(ParseError, match=r"missing value for input \(1,2\)"):
        parse_table("\n".join(lines) + "\n", chain3)


# -- rendered reports ---------------------------------------------------


def test_render_check_report_for_an_integral(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2), name="med")
    report = characterization_report(sugeno_table(m))
    text = render_check_report(report, chain3)
    lines = text.splitlines()
    assert lines[0] == "table su_med"
    assert "axiom inf_homogeneous: true (pairs 27)" in lines
    assert "axiom boolean_inf_homogeneous: true (pairs 12)" in lines
    assert ("condition inf_homogeneous & g_comonotone_supremal: true"
            in lines)
    assert lines[-2] == "consistent: true"
    assert lines[-1] == ("pairs_checked_total: %d"
                         % report.pairs_checked_total)
    # ten axiom lines, seven condition lines, header and two footer lines
    assert len(lines) == 1 + 10 + 7 + 2


def test_render_check_report_shows_witnesses(chain3):
    f = FunctionTable(chain3, 2, H_VALUES, name="h")
    text = render_check_report(characterization_report(f), chain3)
    assert ("axiom idempotent: false (pairs 2)  fails at c=1"
            in text.splitlines())
    assert ("axiom boolean_inf_homogeneous: false (pairs 6)  "
            "fails at c=1, x=(0,2)" in text.splitlines())
    assert "consistent: false" in text.splitlines()


def test_render_recognition_accepted_block_reparses(chain3):
    m = validate_capacity(chain3, 2, (0, 1, 1, 2), name="med")
    f = sugeno_table(m)
    text = render_recognition(recognize(f), f)
    lines = text.splitlines()
    assert lines[0] == "verdict: sugeno"
    cut = next(i for i, line in enumerate(lines)
               if line.startswith("method:"))
    reparsed = parse_capacity("\n".join(lines[1:cut]) + "\n", chain3)
    assert reparsed == m
    assert "method: boolean" in lines
    assert "pairs_checked: 24" in lines
    assert "verification_points: 18" in lines


def test_render_recognition_homogeneity_witness_recomputes_sides(chain3):
    f = FunctionTable(chain3, 2, H_VALUES, name="h")
    text = render_recognition(recognize(f), f)
    lines = text.splitlines()
    assert lines[0] == "verdict: not_sugeno"
    assert lines[1] == ("witness: boolean_inf_homogeneous fails at "
                        "c=1, x=(0,2): f(c^x)=2, c^f(x)=1")
    assert "method: boolean" in lines
    assert "pairs_checked: 6" in lines
    assert "verification_points: 0" in lines


def test_render_recognition_disagreement_witness(chain3):
    f = FunctionTable(chain3, 2, H_VALUES, name="h")
    result = recognize(f, method=RecognitionMethod.DIRECT_COMPARISON)
    text = render_recognition(result, f)
    assert ("witness: f(0,1)=2 but the recovered capacity integrates to 1"
            in text.splitlines())


# -- error rendering ----------------------------------------------------


def test_parse_error_carries_location():
    err = ParseError("bad token", path="m.cap", line=4)
    assert str(err) == "m.cap:4: bad token"
    assert err.bare_message == "bad token"
    assert err.path == "m.cap"
    assert err.line == 4
    assert str(ParseError("no line", path="m.cap")) == "m.cap: no line"
