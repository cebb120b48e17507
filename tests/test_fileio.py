import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

import lattice_sugeno as ls
from lattice_sugeno import fileio
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


def test_oversized_lattices_are_refused_before_building():
    """Past 128 elements a spec or file is refused from its element
    count alone, before the lattice is built."""
    assert build_lattice("chain:128").size == 128
    for spec, count in (("chain:129", "129"), ("boolean:8", "2^8"),
                        ("boolean:" + "9" * 30, "2^" + "9" * 30),
                        ("prod:chain:16xchain:9", "144")):
        with pytest.raises(EnumerationTooLarge,
                           match="^%s elements in lattice "
                           % re.escape(count)):
            build_lattice(spec)
    text = "lattice big\nelements %s\n" % " ".join(
        "e%d" % i for i in range(200))
    with pytest.raises(EnumerationTooLarge, match="^200 elements"):
        parse_lattice(text)


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


@pytest.mark.parametrize("text,message", [
    ("0,1", "--x: vector literal must be parenthesized, got '0,1'"),
    ("()", "--x: empty vector literal"),
    ("(0,9)", "--x: unknown element '9' in lattice chain3"),
    ("(0;1)", "--x: unknown element '0;1' in lattice chain3"),
], ids=["0,1", "()", "(0,9)", "(0;1)"])
def test_bad_vectors_raise(text, message, chain3):
    with pytest.raises(ParseError) as info:
        parse_vector(text, chain3, where="--x")
    assert str(info.value) == message


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


def _per_point_text(f):
    """The table file as it was rendered: one format_vector per point."""
    lines = ["table %s over %s arity %d" % (f.name, f.lattice.name, f.arity)]
    for x, fx in zip(f.domain(), f.values):
        lines.append("%s -> %s" % (format_vector(f.lattice, x),
                                   f.lattice.elements[fx]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec,arity", [
    ("chain:1", 1), ("chain:1", 3), ("chain:3", 1), ("chain:4", 3),
    ("boolean:2", 2), ("boolean:3", 2), ("prod:chain:2xchain:3", 2),
    ("builtin:N5", 3), ("builtin:M3", 2)])
def test_table_text_pinned_and_round_trips(spec, arity):
    L = build_lattice(spec)
    for m in ls.sample_capacities(L, arity, 2, seed=arity):
        for form in ls.SugenoForm:
            f = sugeno_table(m, form)
            text = format_table(f)
            assert text == _per_point_text(f)
            again = parse_table(text, L, path="t.tbl")
            assert again == f and again.name == f.name


# the nine points of a chain3 table, (0,0) on line 2 and (2,1) on line 9
_GOOD_LINES = ["(%d,%d) -> %d" % (a, b, max(a, b))
               for a in range(3) for b in range(3)]


@pytest.mark.parametrize("line,message", [
    ("(2,1) 2", "t.tbl:{line}: expected '(x1,...,xn) -> <element>'"),
    ("2,1 -> 2", "t.tbl: vector literal must be parenthesized, got '2,1 '"),
    ("() -> 2", "t.tbl: empty vector literal"),
    ("(2,7) -> 2", "t.tbl: unknown element '7' in lattice chain3"),
    ("(2,) -> 2", "t.tbl: unknown element '' in lattice chain3"),
    ("(2,7,0) -> 2", "t.tbl: unknown element '7' in lattice chain3"),
    ("(2,1,0) -> 2", "t.tbl:{line}: vector has 3 coordinates, table wants 2"),
    ("(2) -> 2", "t.tbl:{line}: vector has 1 coordinates, table wants 2"),
    # a repeat is reported on its second occurrence, the last line
    ("(2,2) -> 2", "t.tbl:10: input (2,2) assigned twice"),
    ("(2,1) -> 9", "t.tbl:{line}: unknown element '9' in lattice chain3"),
    (None, "t.tbl: missing value for input {point}"),
], ids=["arrow", "parens", "empty", "element", "empty-element",
        "element-before-count", "long", "short", "twice", "value",
        "missing"])
def test_table_body_errors_pinned(chain3, line, message):
    """A defect on the first body line, or after seven well-formed
    lines, is reported with the same text and path, and with its own
    line number, whether the well-formed lines are canonical or not."""
    for at, arrow in itertools.product((0, 7), (" -> ", "->")):
        body = [good.replace(" -> ", arrow) for good in _GOOD_LINES]
        point = _GOOD_LINES[at].split(" ")[0]
        if line is None:
            del body[at]
        else:
            body[at] = line
        text = "table f over chain3 arity 2\n" + "\n".join(body) + "\n"
        with pytest.raises(ParseError) as info:
            parse_table(text, chain3, path="t.tbl")
        assert str(info.value) == message.format(line=at + 2, point=point)


def _reference_table(text, lattice):
    """The checked per-line reader of a two-coordinate "table f" file
    at path t.tbl, kept as the reference: every body line is split at
    its arrow, its literal read as a whole and its count checked, and
    only then is the point placed.  Returns the values or raises."""
    k = lattice.size

    def element(token, lineno=None):
        token = token.strip()
        if token not in lattice._index:
            raise ParseError("unknown element %r in lattice %s"
                             % (token, lattice.name), "t.tbl", lineno)
        return lattice._index[token]

    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    values = [None] * k * k
    for lineno, line in lines[1:]:
        if "->" not in line:
            raise ParseError("expected '(x1,...,xn) -> <element>'",
                             "t.tbl", lineno)
        left, right = line.split("->", 1)
        stripped = left.strip()
        if not (stripped.startswith("(") and stripped.endswith(")")):
            raise ParseError("vector literal must be parenthesized, got %r"
                             % left, "t.tbl")
        body = stripped[1:-1].strip()
        if not body:
            raise ParseError("empty vector literal", "t.tbl")
        x = tuple(element(token) for token in body.split(","))
        if len(x) != 2:
            raise ParseError("vector has %d coordinates, table wants 2"
                             % len(x), "t.tbl", lineno)
        if values[x[0] * k + x[1]] is not None:
            raise ParseError("input %s assigned twice"
                             % format_vector(lattice, x), "t.tbl", lineno)
        values[x[0] * k + x[1]] = element(right, lineno)
    if None in values:
        a, b = divmod(values.index(None), k)
        raise ParseError("missing value for input %s"
                         % format_vector(lattice, (a, b)), "t.tbl")
    return tuple(values)


_NAMES = st.sampled_from(["0", "1", "2", " 1 ", "", "9", "x"])
_TABLE_LINES = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", " ", ",", "(", ")", "->", "#",
                              "-", ">", "x", "9", "\t"]),
             max_size=14).map("".join),
    st.builds(lambda xs, arrow, v: "(%s)%s%s" % (",".join(xs), arrow, v),
              st.lists(_NAMES, max_size=3), st.sampled_from([" -> ", "->"]),
              _NAMES))


@settings(max_examples=400, deadline=None)
@given(at=st.integers(0, 8), line=_TABLE_LINES)
def test_one_pass_reader_matches_the_checked_reader(chain3, at, line):
    body = list(_GOOD_LINES)
    body[at] = line
    text = "table f over chain3 arity 2\n" + "\n".join(body) + "\n"
    outcomes = []
    for read in (lambda: parse_table(text, chain3, path="t.tbl").values,
                 lambda: _reference_table(text, chain3)):
        try:
            outcomes.append(read())
        except ParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=200, deadline=None)
@given(at=st.integers(0, 8), line=_TABLE_LINES)
def test_tight_arrow_reader_matches_the_checked_reader(chain3, at, line):
    """Lines written "(x1,...,xn)->v" miss the bulk check: with one line
    replaced, the line reader reads them as the reference reader does."""
    body = [good.replace(" -> ", "->") for good in _GOOD_LINES]
    body[at] = line
    text = "table f over chain3 arity 2\n" + "\n".join(body) + "\n"
    outcomes = []
    for read in (lambda: parse_table(text, chain3, path="t.tbl").values,
                 lambda: _reference_table(text, chain3)):
        try:
            outcomes.append(read())
        except ParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text,message", [
    ("", "t.tbl: empty table file"),
    ("# only a comment\n", "t.tbl: empty table file"),
    ("table f chain3 arity 2\n",
     "t.tbl:1: header must read 'table <name> over <lattice> arity <n>'"),
    ("table f over chain3 arity x\n",
     "t.tbl:1: arity must be an integer, got 'x'"),
    ("table f over chain3 arity 0\n", "t.tbl:1: arity must be positive"),
], ids=["empty", "comment", "header", "arity", "zero"])
def test_table_header_errors_pinned(chain3, text, message):
    with pytest.raises(ParseError) as info:
        parse_table(text, chain3, path="t.tbl")
    assert str(info.value) == message


def test_table_lines_may_carry_spaces_and_comments(chain3):
    body = list(_GOOD_LINES)
    body[0] = "  ( 0 , 0 )  ->  0   # the bottom corner"
    body[8] = "(2, 2)->2"
    f = parse_table("table f over chain3 arity 2\n" + "\n".join(body),
                    chain3)
    assert f.values == tuple(max(a, b) for a in range(3) for b in range(3))


# names that put parentheses, dashes and ">" next to the table's own
# punctuation; each can stand in a canonical line
_PLAIN_NAMES = ["-", ">", "(", ")", "a-", ">b", "c)", "(d", "e", "-f>", "0"]


@st.composite
def _table_lattices(draw):
    """chain:3, boolean:2, N5, or a random lattice from covers: an
    intersection-closed family of subsets of {0, 1, 2} plus the full
    set, under inclusion, named from _PLAIN_NAMES."""
    which = draw(st.sampled_from(["chain:3", "boolean:2", "builtin:N5",
                                  "covers"]))
    if which != "covers":
        return build_lattice(which)
    sets = {frozenset(range(3))} | {
        frozenset(i for i in range(3) if mask >> i & 1)
        for mask in draw(st.sets(st.integers(0, 7), max_size=5))}
    while not {a & b for a in sets for b in sets} <= sets:
        sets |= {a & b for a in sets for b in sets}
    sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
    names = draw(st.permutations(_PLAIN_NAMES))[:len(sets)]
    covers = [(names[a], names[b]) for a in range(len(sets))
              for b in range(len(sets)) if sets[a] < sets[b]
              and not any(sets[a] < c < sets[b] for c in sets)]
    return ls.from_covers("covers", names, covers)


def _parse_outcome(text, lattice):
    try:
        f = parse_table(text, lattice, path="t.tbl")
    except ls.Error as exc:
        return type(exc), str(exc)
    return f.values, f.name, f.arity


@settings(max_examples=300, deadline=None)
@given(lattice=_table_lattices(), arity=st.integers(1, 3),
       integral=st.booleans(), seed=st.integers(0, 99),
       how=st.sampled_from(["value", "bare", "unknown", "twice", "delete",
                            "swap", "space", "comment", "crlf", "tight",
                            None]),
       data=st.data())
def test_bulk_reader_matches_the_line_reader(lattice, arity, integral, seed,
                                             how, data):
    """A canonical text with at most one perturbed line reads as the
    same text with a trailing comment line, which the bulk check never
    accepts: the same table, or the same error type and text."""
    L = lattice
    if integral:
        f = sugeno_table(ls.sample_capacities(L, arity, 1, seed=seed)[0])
    else:
        corner = tuple(seed % (i + 2) % L.size for i in range(arity))
        f = FunctionTable(L, arity, [
            L.top if all(map(L.leq, corner, x)) else L.bottom
            for x in itertools.product(range(L.size), repeat=arity)],
            name="step")
    lines = format_table(f).splitlines()
    at = data.draw(st.integers(1, len(lines) - 1))
    other = data.draw(st.integers(1, len(lines) - 1))
    if how == "value":
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + data.draw(
            st.sampled_from(L.elements))
    elif how == "bare":
        lines[at] = lines[at].rsplit(" ", 1)[1]
    elif how == "unknown":
        lines[at] = lines[at].replace(L.elements[0], "nope", 1)
    elif how == "twice":
        lines[at] = lines[other]
    elif how == "delete":
        del lines[at]
    elif how == "swap":
        lines[at], lines[other] = lines[other], lines[at]
    elif how == "space":
        lines[at] += " "
    elif how == "comment":
        lines[at] += "  # note"
    elif how == "tight":
        lines = [line.replace(") -> ", ")->") for line in lines]
    text = ("\r\n" if how == "crlf" else "\n").join(lines) + "\n"
    expected = _parse_outcome(text + "# tail\n", L)
    assert _parse_outcome(text, L) == expected
    if how in (None, "crlf", "tight"):
        assert expected == (f.values, f.name, f.arity)


@pytest.mark.parametrize("names,message", [
    (["a", "a,b", "b,c", "c"], "t.tbl: unknown element 'b' in lattice sq"),
    (["a", "b", "a,b", "c"],
     "t.tbl:4: vector has 3 coordinates, table wants 2"),
])
def test_comma_names_are_left_to_the_line_reader(names, message):
    """A name may hold a comma, but a table line cannot carry it: the
    written text of (a, b,c) and of (a,b, c) is the same "(a,b,c)".
    Such a text is refused as the line reader refuses it, never read in
    bulk against the writer's keys."""
    L = ls.from_covers("sq", names, [(names[0], names[1]),
                                     (names[0], names[2]),
                                     (names[1], names[3]),
                                     (names[2], names[3])])
    text = format_table(FunctionTable(L, 2, [0] * 16))
    with pytest.raises(ParseError) as info:
        parse_table(text, L, path="t.tbl")
    assert str(info.value) == message


@pytest.mark.parametrize("spec,arity", [
    ("chain:3", 2), ("boolean:2", 3), ("builtin:N5", 2)])
def test_commented_headers_read_as_the_line_reader_reads(monkeypatch, spec,
                                                         arity):
    """A canonical table whose header carries a comment is still read in
    bulk, and one preceded by a comment line by the line reader; both
    give the table the line reader gives for the same points.  The line
    reader reads each literal through parse_vector, and the bulk check
    never calls it."""
    calls = [0]
    original = fileio.parse_vector

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(fileio, "parse_vector", counted)
    L = build_lattice(spec)
    f = sugeno_table(ls.sample_capacities(L, arity, 1, seed=arity)[0])
    header, body = format_table(f).split("\n", 1)
    expected = parse_table(format_table(f) + "# tail\n", L)
    assert expected == f and expected.name == f.name
    assert calls[0] == L.size ** arity
    for text, read in ((header + "  # a note\n" + body, 0),
                       ("# a note\n" + header + "\n" + body, L.size ** arity)):
        calls[0] = 0
        again = parse_table(text, L, path="t.tbl")
        assert again == expected and again.name == expected.name
        assert calls[0] == read


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
