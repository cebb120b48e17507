"""Command-line front end.

Exit codes: 0 when the requested check holds (or the enumeration ran),
1 when a verdict is negative (the witness is printed), 2 for usage and
input-format problems.  All reports are plain deterministic text on
standard output; diagnostics go to standard error.
"""

import argparse
import sys

from .axioms import characterization_report, sugeno_table
from .bench import format_cost_report, run_bench
from .capacity import Capacity, SugenoForm, format_subset, sugeno
from .errors import (
    ArityMismatch,
    CyclicOrder,
    EnumerationTooLarge,
    InvalidCapacity,
    LatticeMismatch,
    NoBounds,
    NotAggregation,
    NotALattice,
    NotDistributive,
    ParseError,
    UnknownElement,
    guard_size,
)
from .fileio import (
    build_lattice,
    format_lattice,
    format_table,
    format_vector,
    parse_capacity,
    parse_table,
    parse_vector,
    read_text,
    render_check_report,
    render_recognition,
)
from .lattice import is_distributive
from .recognizer import RecognitionMethod, recognize
from .relations import PAIRWISE_KINDS, RelationKind, relation_check, relation_region
from .suites import SCOPES, run_scope

_STRUCTURAL = (CyclicOrder, NoBounds, NotALattice)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _load(args, lattice, parse, noun: str):
    """Parse the file named by --table or --capacity (``noun``); its
    arity must match --arity when that is given."""
    path = getattr(args, noun)
    loaded = parse(read_text(path), lattice, path=path)
    if args.arity is not None and loaded.arity != args.arity:
        raise ParseError("%s arity %d does not match --arity %d"
                         % (noun, loaded.arity, args.arity), path)
    return loaded


def cmd_lattice_validate(args) -> int:
    try:
        lattice = build_lattice(args.lattice)
    except _STRUCTURAL as exc:
        print("invalid lattice: %s" % exc)
        return 1
    print("lattice %s: %d elements, bottom %s, top %s"
          % (lattice.name, lattice.size,
             lattice.elements[lattice.bottom], lattice.elements[lattice.top]))
    print("distributive: %s" % _bool(is_distributive(lattice)))
    if args.emit:
        sys.stdout.write(format_lattice(lattice))
    print("valid lattice")
    return 0


def _witness_text(lattice, kind, witness) -> str:
    if kind in PAIRWISE_KINDS:
        return "witness: coordinate pair (%d,%d)" % (witness[0] + 1,
                                                     witness[1] + 1)
    if kind is RelationKind.COMPARABLE:
        return ("witness: not below at coordinate %d, not above at "
                "coordinate %d" % (witness[0] + 1, witness[1] + 1))
    mask = 0
    for i in witness:
        mask |= 1 << i
    return "witness: subset %s" % format_subset(mask)


def cmd_relations(args) -> int:
    lattice = build_lattice(args.lattice)
    kind = RelationKind(args.kind)
    x = parse_vector(args.x, lattice, where="--x")
    y = parse_vector(args.y, lattice, where="--y")
    result = relation_check(lattice, kind, x, y)
    print("%s: %s" % (kind.value, _bool(result.holds)))
    if result.holds:
        return 0
    print(_witness_text(lattice, kind, result.witness))
    return 1


def cmd_region(args) -> int:
    lattice = build_lattice(args.lattice)
    kind = RelationKind(args.kind)
    x = parse_vector(args.x, lattice, where="--x")
    region = relation_region(lattice, kind, x, limit=args.limit)
    print("region %s around %s: %d vectors"
          % (kind.value, format_vector(lattice, x), len(region)))
    for y in region:
        print(format_vector(lattice, y))
    return 0


def cmd_sugeno(args) -> int:
    lattice = build_lattice(args.lattice)
    m = _load(args, lattice, parse_capacity, "capacity")
    x = parse_vector(args.x, lattice, where="--x")
    if args.form is not None:
        form = SugenoForm(args.form)
        value = sugeno(m, x, form)
        label = ("sup_of_meets" if form is SugenoForm.SUP_OF_MEETS
                 else "inf_of_joins")
        print("%s: %s" % (label, lattice.elements[value]))
        if args.emit_table:
            sys.stdout.write(format_table(sugeno_table(m, form)))
        return 0
    sup = sugeno(m, x, SugenoForm.SUP_OF_MEETS)
    inf = sugeno(m, x, SugenoForm.INF_OF_JOINS)
    print("sup_of_meets: %s" % lattice.elements[sup])
    print("inf_of_joins: %s" % lattice.elements[inf])
    print("forms agree: %s" % _bool(sup == inf))
    if args.emit_table:
        sys.stdout.write(format_table(sugeno_table(m)))
    return 0 if sup == inf else 1


def cmd_axioms(args) -> int:
    lattice = build_lattice(args.lattice)
    f = _load(args, lattice, parse_table, "table")
    try:
        report = characterization_report(f)
    except NotAggregation as exc:
        print("not an aggregation function: %s" % exc)
        return 1
    sys.stdout.write(render_check_report(report, lattice))
    return 0 if report.consistent else 1


def cmd_recognize(args) -> int:
    lattice = build_lattice(args.lattice)
    f = _load(args, lattice, parse_table, "table")
    method = RecognitionMethod(args.method)
    try:
        result = recognize(f, method,
                           allow_nondistributive=args.allow_nondistributive)
    except NotAggregation as exc:
        print("not an aggregation function: %s" % exc)
        return 1
    sys.stdout.write(render_recognition(result, f))
    return 0 if result.accepted else 1


def cmd_theorem_suite(args) -> int:
    lattice = build_lattice(args.lattice)
    results = run_scope(args.scope, lattice, args.arity,
                        seed=args.seed, limit=args.limit)
    for result in results:
        for line in result.lines():
            print(line)
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args) -> int:
    lattice = build_lattice(args.lattice)
    if args.table is not None:
        f = _load(args, lattice, parse_table, "table")
    else:
        if args.capacity is not None:
            m = _load(args, lattice, parse_capacity, "capacity")
        else:
            # integral of the plain maximum: top on every nonempty subset
            arity = args.arity if args.arity is not None else 2
            guard_size(2, arity, "subsets", args.limit)
            size = 1 << arity
            m = Capacity(lattice, arity,
                         [lattice.bottom] + [lattice.top] * (size - 1),
                         name="max")
        guard_size(lattice.size, m.arity, "points", args.limit)
        f = sugeno_table(m)
    model = run_bench(f)
    print(format_cost_report([model]))
    return 0


def _positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-sugeno",
        description="Sugeno integrals, comonotonicity relations and "
                    "axiom checking over finite bounded lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, arity_default=None):
        p.add_argument("--lattice", required=True,
                       help="chain:<k>, boolean:<m>, prod:<s>x<s>, "
                            "builtin:N5, builtin:M3, file:<path>")
        p.add_argument("--arity", type=_positive, default=arity_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--limit", type=_positive, default=10 ** 7)

    p = sub.add_parser("lattice-validate",
                       help="build a lattice and check its laws")
    common(p)
    p.add_argument("--emit", action="store_true",
                   help="print the lattice in file format")
    p.set_defaults(func=cmd_lattice_validate)

    p = sub.add_parser("relations", help="test one vector relation")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in RelationKind])
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("region",
                       help="enumerate every y related to a fixed x")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in RelationKind])
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sugeno", help="evaluate an integral from a "
                                      "capacity file")
    common(p)
    p.add_argument("--capacity", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--form", choices=[f.value for f in SugenoForm])
    p.add_argument("--emit-table", action="store_true",
                   help="also print the full integral table")
    p.set_defaults(func=cmd_sugeno)

    p = sub.add_parser("axioms", help="run all axiom checks on a table")
    common(p)
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("recognize",
                       help="decide whether a table is an integral")
    common(p)
    p.add_argument("--table", required=True)
    p.add_argument("--method", default="boolean",
                   choices=[m.value for m in RecognitionMethod])
    p.add_argument("--allow-nondistributive", action="store_true")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("theorem-suite",
                       help="run a named verification suite")
    p.add_argument("scope", choices=list(SCOPES))
    common(p, arity_default=2)
    p.set_defaults(func=cmd_theorem_suite)

    p = sub.add_parser("bench", help="pair-count cost report")
    common(p)
    p.add_argument("--table")
    p.add_argument("--capacity")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidCapacity, LatticeMismatch, ArityMismatch,
            UnknownElement, EnumerationTooLarge, NotDistributive,
            *_STRUCTURAL, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
