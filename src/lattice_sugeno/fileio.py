"""Text formats: lattice, capacity and table files, vector literals,
and the rendered reports.

All formats are line-oriented UTF-8 with `#` comments.  Elements are
referred to by name; coordinates and subset members are 1-based in
text.  Every formatter here is the inverse of the matching parser, so
emitted files re-parse to equal values.
"""

import math
import re
from typing import Sequence

from .axioms import AxiomKind, CheckReport, FunctionTable, characterization_label
from .capacity import Capacity, format_subset, validate_capacity
from .errors import LatticeMismatch, ParseError, guard_size
from .lattice import Lattice, chain, boolean_lattice, from_covers, m3, n5, product
from .recognizer import RecognitionResult
from .relations import decode, encode


def read_text(path: str) -> str:
    """A file's text; an unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read file: %s" % exc, path) from None


# -- lattice specs and files -------------------------------------------

# the x between two factors of a prod: spec
_NEXT_FACTOR = re.compile(r"x(?=(?:chain|boolean|builtin|file):)")


#: most elements a lattice spec or file may name: is_distributive takes
#: k^3 steps, and the pairwise relations' letter table takes k^4 (it
#: refuses more than 10^7 entries, so k >= 57, on its own)
ELEMENT_LIMIT = 128


def _guard_elements(base: int, exp: int, spec: str):
    """Refuse a lattice of base^exp elements past ELEMENT_LIMIT, before
    any of its k x k order rows is built."""
    guard_size(base, exp, "elements in lattice %s" % spec, ELEMENT_LIMIT)


def build_lattice(spec: str) -> Lattice:
    """Resolve a lattice spec string.

    Accepted forms: chain:<k>, boolean:<m>, prod:<spec>x<spec>[x...],
    builtin:N5, builtin:M3, file:<path>.  A prod: body splits only at an
    x that starts another factor spec, and a file: factor runs to the
    end, so paths may contain x.  A lattice of more than ELEMENT_LIMIT
    elements is refused with EnumerationTooLarge.
    """
    if spec.startswith("chain:"):
        k = _positive_int(spec[6:], spec)
        _guard_elements(k, 1, spec)
        return chain(k)
    if spec.startswith("boolean:"):
        m = _positive_int(spec[8:], spec)
        _guard_elements(2, m, spec)
        return boolean_lattice(m)
    if spec.startswith("prod:"):
        parts = []
        body = spec[5:]
        while not body.startswith("file:"):
            cut = _NEXT_FACTOR.search(body)
            if cut is None:
                break
            parts.append(body[:cut.start()])
            body = body[cut.end():]
        parts.append(body)
        if len(parts) < 2:
            raise ParseError("prod: needs at least two factor specs",
                             path=spec)
        factors = [build_lattice(p) for p in parts]
        _guard_elements(math.prod(f.size for f in factors), 1, spec)
        return product(factors)
    if spec.startswith("builtin:"):
        name = spec[8:]
        if name == "N5":
            return n5()
        if name == "M3":
            return m3()
        raise ParseError("unknown builtin %r (N5 or M3)" % name, path=spec)
    if spec.startswith("file:"):
        return parse_lattice(read_text(spec[5:]), path=spec[5:])
    raise ParseError("unrecognized lattice spec %r" % spec, path=spec)


def _positive_int(token: str, spec: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError("expected an integer, got %r" % token,
                         path=spec) from None
    if value < 1:
        raise ParseError("expected a positive integer, got %d" % value,
                         path=spec)
    return value


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_lattice(text: str, path: str = "<input>") -> Lattice:
    """Read the cover-based lattice file format.

    Structural defects (cycles, missing bounds, missing meets) raise
    the corresponding lattice errors; malformed text raises ParseError
    with the line number.
    """
    name = None
    elements = None
    declared = {}
    covers = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        word = fields[0]
        if word == "lattice":
            if len(fields) != 2:
                raise ParseError("lattice line wants exactly one name",
                                 path, lineno)
            if name is not None:
                raise ParseError("duplicate lattice line", path, lineno)
            name = fields[1]
        elif word == "elements":
            if len(fields) < 2:
                raise ParseError("elements line wants at least one element",
                                 path, lineno)
            if elements is not None:
                raise ParseError("duplicate elements line", path, lineno)
            elements = fields[1:]
        elif word in ("bottom", "top"):
            if len(fields) != 2:
                raise ParseError("%s line wants exactly one element" % word,
                                 path, lineno)
            if word in declared:
                raise ParseError("duplicate %s line" % word, path, lineno)
            declared[word] = (fields[1], lineno)
        elif word == "cover":
            if len(fields) != 3:
                raise ParseError("cover line wants two elements",
                                 path, lineno)
            covers.append((fields[1], fields[2]))
        else:
            raise ParseError("unknown directive %r" % word, path, lineno)
    if name is None:
        raise ParseError("missing lattice line", path)
    if elements is None:
        raise ParseError("missing elements line", path)
    _guard_elements(len(elements), 1, path)
    for word, (elem, lineno) in declared.items():
        if elem not in elements:
            raise ParseError("%s element %r is not in the elements list"
                             % (word, elem), path, lineno)
    lattice = from_covers(name, elements, covers)
    for word, attr in (("bottom", lattice.bottom), ("top", lattice.top)):
        if word in declared and declared[word][0] != lattice.elements[attr]:
            raise ParseError(
                "declared %s %r but the cover order gives %r"
                % (word, declared[word][0], lattice.elements[attr]),
                path, declared[word][1])
    return lattice


def format_lattice(lattice: Lattice) -> str:
    lines = ["lattice %s" % lattice.name,
             "elements %s" % " ".join(lattice.elements),
             "bottom %s" % lattice.elements[lattice.bottom],
             "top %s" % lattice.elements[lattice.top]]
    for low, high in lattice.cover_pairs():
        lines.append("cover %s %s"
                     % (lattice.elements[low], lattice.elements[high]))
    return "\n".join(lines) + "\n"


# -- vectors -----------------------------------------------------------


def _parse_element(token: str, lattice: Lattice,
                   path: str, lineno: int | None = None) -> int:
    """An element name's index; an unknown name is a ParseError."""
    token = token.strip()
    if token not in lattice._index:
        raise ParseError("unknown element %r in lattice %s"
                         % (token, lattice.name), path, lineno)
    return lattice._index[token]


def parse_vector(text: str, lattice: Lattice,
                 where: str = "<vector>") -> tuple:
    """Read a "(e1,e2,...)" literal against the lattice's element names."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError("vector literal must be parenthesized, got %r"
                         % text, where)
    body = stripped[1:-1].strip()
    if not body:
        raise ParseError("empty vector literal", where)
    return tuple(_parse_element(token, lattice, where)
                 for token in body.split(","))


def format_vector(lattice: Lattice, x: Sequence[int]) -> str:
    return "(%s)" % ",".join(lattice.elements[v] for v in x)


# -- capacities --------------------------------------------------------


def _parse_header(line: str, expected: str, lattice: Lattice,
                  path: str, lineno: int) -> tuple:
    fields = line.split()
    if (len(fields) != 6 or fields[0] != expected or fields[2] != "over"
            or fields[4] != "arity"):
        raise ParseError(
            "header must read '%s <name> over <lattice> arity <n>'"
            % expected, path, lineno)
    if fields[3] != lattice.name:
        raise LatticeMismatch(
            "%s file is over lattice %r, not %r"
            % (expected, fields[3], lattice.name))
    try:
        arity = int(fields[5])
    except ValueError:
        raise ParseError("arity must be an integer, got %r" % fields[5],
                         path, lineno) from None
    if arity < 1:
        raise ParseError("arity must be positive", path, lineno)
    return fields[1], arity


def _parse_subset(token: str, arity: int, path: str, lineno: int) -> int:
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError("subset must be {i,j,...}, got %r" % token,
                         path, lineno)
    body = token[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            part = part.strip()
            try:
                i = int(part)
            except ValueError:
                raise ParseError("subset member %r is not an integer" % part,
                                 path, lineno) from None
            if not 1 <= i <= arity:
                raise ParseError("subset member %d out of range 1..%d"
                                 % (i, arity), path, lineno)
            if mask >> (i - 1) & 1:
                raise ParseError("subset member %d repeated" % i,
                                 path, lineno)
            mask |= 1 << (i - 1)
    return mask


def parse_capacity(text: str, lattice: Lattice,
                   path: str = "<input>") -> Capacity:
    """Read the capacity file format and validate the result.

    Lines map subsets to elements; the empty and full subsets may be
    omitted and default to bottom and top.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty capacity file", path)
    lineno, header = lines[0]
    name, arity = _parse_header(header, "capacity", lattice, path, lineno)
    guard_size(2, arity, "subsets")
    size = 1 << arity
    seen = {}
    for lineno, line in lines[1:]:
        if "->" not in line:
            raise ParseError("expected '<subset> -> <element>'", path, lineno)
        left, right = line.split("->", 1)
        mask = _parse_subset(left, arity, path, lineno)
        if mask in seen:
            raise ParseError("subset %s assigned twice" % format_subset(mask),
                             path, lineno)
        seen[mask] = _parse_element(right, lattice, path, lineno)
    seen.setdefault(0, lattice.bottom)
    seen.setdefault(size - 1, lattice.top)
    missing = [m for m in range(size) if m not in seen]
    if missing:
        raise ParseError("missing value for subset %s"
                         % format_subset(missing[0]), path)
    values = [seen[m] for m in range(size)]
    return validate_capacity(lattice, arity, values, name=name)


def format_capacity(m: Capacity) -> str:
    lines = ["capacity %s over %s arity %d"
             % (m.name, m.lattice.name, m.arity)]
    for mask in range(1 << m.arity):
        lines.append("%s -> %s"
                     % (format_subset(mask), m.lattice.elements[m.values[mask]]))
    return "\n".join(lines) + "\n"


# -- function tables ---------------------------------------------------


def parse_table(text: str, lattice: Lattice,
                path: str = "<input>") -> FunctionTable:
    """Read the function-table file format; every point is required."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty table file", path)
    lineno, header = lines[0]
    name, arity = _parse_header(header, "table", lattice, path, lineno)
    guard_size(lattice.size, arity, "points")
    values = [None] * lattice.size ** arity
    for lineno, line in lines[1:]:
        if "->" not in line:
            raise ParseError("expected '(x1,...,xn) -> <element>'",
                             path, lineno)
        left, right = line.split("->", 1)
        x = parse_vector(left, lattice, where=path)
        if len(x) != arity:
            raise ParseError("vector has %d coordinates, table wants %d"
                             % (len(x), arity), path, lineno)
        pos = encode(x, lattice.size)
        if values[pos] is not None:
            raise ParseError("input %s assigned twice"
                             % format_vector(lattice, x), path, lineno)
        values[pos] = _parse_element(right, lattice, path, lineno)
    if None in values:
        missing = decode(values.index(None), lattice.size, arity)
        raise ParseError("missing value for input %s"
                         % format_vector(lattice, missing), path)
    return FunctionTable(lattice, arity, values, name=name)


def format_table(f: FunctionTable) -> str:
    lines = ["table %s over %s arity %d" % (f.name, f.lattice.name, f.arity)]
    for x, fx in zip(f.domain(), f.values):
        lines.append("%s -> %s" % (format_vector(f.lattice, x),
                                   f.lattice.elements[fx]))
    return "\n".join(lines) + "\n"


# -- report rendering --------------------------------------------------


def _axiom_witness_text(lattice: Lattice, kind: AxiomKind,
                        witness: tuple) -> str:
    if witness[0] == "boundary":
        return "boundary fails at x=%s" % format_vector(lattice, witness[1])
    if witness[0] == "monotone":
        return "monotonicity fails between %s and %s" % (
            format_vector(lattice, witness[1]),
            format_vector(lattice, witness[2]))
    if kind is AxiomKind.IDEMPOTENT:
        return "fails at c=%s" % lattice.elements[witness[0]]
    if kind in (AxiomKind.INF_HOMOGENEOUS, AxiomKind.SUP_HOMOGENEOUS,
                AxiomKind.BOOLEAN_INF_HOMOGENEOUS,
                AxiomKind.BOOLEAN_SUP_HOMOGENEOUS):
        return "fails at c=%s, x=%s" % (lattice.elements[witness[0]],
                                        format_vector(lattice, witness[1]))
    return "fails at x=%s, y=%s" % (format_vector(lattice, witness[0]),
                                    format_vector(lattice, witness[1]))


def render_check_report(report: CheckReport, lattice: Lattice) -> str:
    lines = ["table %s" % report.table_name]
    for kind in AxiomKind:
        check = report.axioms[kind]
        line = "axiom %s: %s (pairs %d)" % (
            kind.value, "true" if check.holds else "false",
            check.pairs_checked)
        if check.witness is not None:
            line += "  " + _axiom_witness_text(lattice, kind, check.witness)
        lines.append(line)
    for pair, verdict in report.conditions:
        lines.append("condition %s: %s"
                     % (characterization_label(pair),
                        "true" if verdict else "false"))
    lines.append("consistent: %s" % ("true" if report.consistent else "false"))
    lines.append("pairs_checked_total: %d" % report.pairs_checked_total)
    return "\n".join(lines) + "\n"


def render_recognition(result: RecognitionResult, f: FunctionTable) -> str:
    lattice = f.lattice
    lines = []
    if result.accepted:
        lines.append("verdict: sugeno")
        lines.append(format_capacity(result.capacity).rstrip("\n"))
    else:
        lines.append("verdict: not_sugeno")
        w = result.witness
        if w[0] in ("boolean_inf", "boolean_sup"):
            infside = w[0] == "boolean_inf"
            op = lattice._meet if infside else lattice._join
            sym = "^" if infside else "v"
            c, x = w[1], w[2]
            scaled = tuple(op[c][v] for v in x)
            lhs = f(scaled)
            rhs = op[c][f(x)]
            lines.append(
                "witness: boolean_%s_homogeneous fails at c=%s, x=%s: "
                "f(c%sx)=%s, c%sf(x)=%s"
                % ("inf" if infside else "sup", lattice.elements[c],
                   format_vector(lattice, x), sym, lattice.elements[lhs],
                   sym, lattice.elements[rhs]))
        else:
            _, x, got, expected = w
            lines.append(
                "witness: f%s=%s but the recovered capacity integrates to %s"
                % (format_vector(lattice, x), lattice.elements[got],
                   lattice.elements[expected]))
    lines.append("method: %s" % result.method.value)
    lines.append("pairs_checked: %d" % result.pairs_checked)
    lines.append("verification_points: %d" % result.verification_points)
    return "\n".join(lines) + "\n"
