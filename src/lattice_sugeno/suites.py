"""Named exhaustive verification suites, runnable from the CLI.

Each suite checks one of the library's headline claims on a concrete
lattice and arity, reports how many cases it covered, and carries a
witness when something fails.  Scope names:

* thm1     -- g-comonotone vs dual-g-comonotone: equivalence on
              distributive lattices, divergence search elsewhere.
* thm2     -- the four-way equivalence of g-comonotone, its dual, and
              the two subsetwise interchange conditions.
* thm3     -- the seven two-axiom conjunctions: mutual agreement over
              every aggregation table, and whether the satisfiers are
              exactly the Sugeno integrals.
* prop1    -- on chains: inf-homogeneous + comonotone supremal alone
              select exactly the Sugeno integrals.
* example1 -- region closure: the g-comonotone region as the union of
              the comonotone and comparable regions (arity 2), and its
              strict failure at arity 3.
* lemmas   -- the small implication lemmas (relation inclusions,
              homogeneity forcing idempotency, integral compliance on
              seeded random capacities).
* all      -- everything applicable to the given lattice and arity.

A suite that cannot apply (wrong lattice shape, domain too large) is
reported as skipped rather than failed, except where the caller's
request is outright contradictory.

The relation-quantified suites (thm1, thm2, example1 and the relation
lemmas) read per-anchor verdict rows from ``relations._VerdictRows``
and compare them with bitwise operations.
"""

from dataclasses import dataclass, field

from .axioms import (
    AxiomKind,
    CHARACTERIZATIONS,
    axiom_check,
    characterization_label,
    characterization_report,
    enumerate_aggregations,
    sample_aggregations,
    sugeno_table,
)
from .capacity import enumerate_capacities, sample_capacities
from .errors import EnumerationTooLarge, NotDistributive, guard_size
from .fileio import format_vector
from .lattice import Lattice, is_distributive
from .recognizer import RecognitionMethod, recognize
from .relations import (
    RelationKind,
    _VerdictRows,
    _lowest,
    all_vectors,
    encode,
)
# unused here, but perfbench/tracing.py wraps this name in this module
from .relations import relation_check  # noqa: F401

SCOPES = ("thm1", "thm2", "thm3", "prop1", "example1", "lemmas", "all")


@dataclass
class SuiteResult:
    scope: str
    passed: bool
    cases: int
    details: list = field(default_factory=list)
    skipped: bool = False

    def lines(self) -> list:
        status = "skip" if self.skipped else ("pass" if self.passed else "FAIL")
        out = ["%s: %s (%d cases)" % (self.scope, status, self.cases)]
        out.extend("  " + d for d in self.details)
        return out


def _is_chain(lattice: Lattice) -> bool:
    full = (1 << lattice.size) - 1
    return all(up | down == full
               for up, down in zip(lattice._up, lattice._down))


def suite_duality(lattice: Lattice, arity: int,
                  limit: int = 10 ** 7) -> SuiteResult:
    """thm1: on distributive lattices the interchange identity and its
    dual must agree on every ordered vector pair; on non-distributive
    ones the suite searches for a divergence and records the outcome
    either way."""
    vectors = list(all_vectors(lattice, arity, limit))
    guard_size(lattice.size, 2 * arity, "vector pairs", limit)
    distributive = is_distributive(lattice)
    rows = _VerdictRows(lattice, arity)
    divergences = 0
    first = None
    for x in vectors:
        g = rows(RelationKind.G_COMONOTONE, x)
        d = rows(RelationKind.DUAL_G_COMONOTONE, x)
        divergent = g ^ d
        divergences += divergent.bit_count()
        if divergent and first is None:
            b = _lowest(divergent)
            first = (x, vectors[b], bool(g >> b & 1), bool(d >> b & 1))
    cases = len(vectors) ** 2
    details = []
    if distributive:
        passed = divergences == 0
        details.append("distributive lattice: expecting full agreement")
        if first is not None:
            details.append("DIVERGENCE x=%s y=%s g=%s dual=%s"
                           % (format_vector(lattice, first[0]),
                              format_vector(lattice, first[1]),
                              first[2], first[3]))
    else:
        passed = True
        if first is None:
            details.append("non-distributive lattice: no divergence found "
                           "(recorded)")
        else:
            details.append(
                "non-distributive lattice: %d divergent pairs, first "
                "x=%s y=%s g=%s dual=%s (recorded)"
                % (divergences, format_vector(lattice, first[0]),
                   format_vector(lattice, first[1]), first[2], first[3]))
    return SuiteResult("thm1", passed, cases, details)


def suite_four_equivalences(lattice: Lattice, arity: int,
                            limit: int = 10 ** 7) -> SuiteResult:
    """thm2: the pairwise interchange identity, its dual, and both
    subsetwise versions hold or fail together on distributive lattices."""
    if not is_distributive(lattice):
        raise NotDistributive(
            "thm2 asserts equivalence on distributive lattices only; "
            "run thm1 on %s for the divergence search" % lattice.name,
            witness=lattice._distributive_witness)
    vectors = list(all_vectors(lattice, arity, limit))
    kinds = (RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE,
             RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET)
    rows = _VerdictRows(lattice, arity)
    for a, x in enumerate(vectors):
        g = rows(RelationKind.G_COMONOTONE, x)
        d = rows(RelationKind.DUAL_G_COMONOTONE, x)
        sj = rows(RelationKind.SUBSETWISE_JOIN, x)
        sm = rows(RelationKind.SUBSETWISE_MEET, x)
        split = (g ^ d) | (g ^ sj) | (g ^ sm)
        if split:
            b = _lowest(split)
            return SuiteResult(
                "thm2", False, a * len(vectors) + b + 1,
                ["conditions split at x=%s y=%s: %s"
                 % (format_vector(lattice, x),
                    format_vector(lattice, vectors[b]),
                    " ".join("%s=%s" % (k.value, bool(row >> b & 1))
                             for k, row in zip(kinds, (g, d, sj, sm))))])
    return SuiteResult("thm2", True, len(vectors) ** 2,
                       ["all four conditions agree on every pair"])


def suite_characterizations(lattice: Lattice, arity: int) -> SuiteResult:
    """thm3: run every two-axiom conjunction over every aggregation
    table; verify the joint satisfiers are exactly the integral tables
    and flag any conjunction that disagrees with the others."""
    if not is_distributive(lattice):
        raise NotDistributive("thm3 runs on distributive lattices only",
                              witness=lattice._distributive_witness)
    tables = list(enumerate_aggregations(lattice, arity))
    integral_tables = {sugeno_table(m).values
                       for m in enumerate_capacities(lattice, arity)}
    counts = [0] * len(CHARACTERIZATIONS)
    inconsistent = 0
    all_satisfiers = []
    first_split = None
    for f in tables:
        report = characterization_report(f)
        verdicts = report.condition_verdicts()
        for i, v in enumerate(verdicts):
            counts[i] += v
        if not report.consistent:
            inconsistent += 1
            if first_split is None:
                first_split = (f, verdicts)
        if all(verdicts):
            all_satisfiers.append(f)
    match = {f.values for f in all_satisfiers} == integral_tables
    sound = all(recognize(f, RecognitionMethod.DIRECT_COMPARISON).accepted
                for f in all_satisfiers)
    details = ["%d aggregation tables, %d capacities"
               % (len(tables), len(integral_tables))]
    for i, pair in enumerate(CHARACTERIZATIONS):
        details.append("condition %s: %d satisfiers"
                       % (characterization_label(pair), counts[i]))
    details.append("all seven conditions: %d satisfiers" % len(all_satisfiers))
    details.append("satisfiers equal the integral tables: %s" % match)
    details.append("each satisfier integrates its recovered capacity: %s"
                   % sound)
    if inconsistent:
        f, verdicts = first_split
        details.append(
            "CONDITIONS DISAGREE on %d tables; first %s with verdicts %s"
            % (inconsistent, list(f.values),
               "".join("1" if v else "0" for v in verdicts)))
    passed = match and sound and inconsistent == 0
    return SuiteResult("thm3", passed, len(tables), details)


def suite_chain_characterization(lattice: Lattice, arity: int) -> SuiteResult:
    """prop1: on a chain, inf-homogeneity plus comonotone supremality
    already select exactly the integral tables."""
    if not _is_chain(lattice):
        raise ValueError("prop1 applies to chains; %s is not a chain"
                         % lattice.name)
    tables = list(enumerate_aggregations(lattice, arity))
    integral_tables = {sugeno_table(m).values
                       for m in enumerate_capacities(lattice, arity)}
    selected = set()
    for f in tables:
        if (axiom_check(f, AxiomKind.INF_HOMOGENEOUS).holds
                and axiom_check(f, AxiomKind.COMONOTONE_SUPREMAL).holds):
            selected.add(f.values)
    passed = selected == integral_tables
    return SuiteResult(
        "prop1", passed, len(tables),
        ["%d of %d tables selected; equal to the %d integral tables: %s"
         % (len(selected), len(tables), len(integral_tables), passed)])


def suite_region_closure(lattice: Lattice, arity: int,
                         limit: int = 10 ** 7) -> SuiteResult:
    """example1: at arity 2 on a chain, the g-comonotone region around
    any x is exactly the union of the comonotone region and the
    comparable region; at arity 3 the union is strictly smaller for
    some x, which needs a chain of at least four elements."""
    if not _is_chain(lattice):
        raise ValueError("example1 applies to chains; %s is not a chain"
                         % lattice.name)
    if arity == 3 and lattice.size < 4:
        raise ValueError("example1 at arity 3 needs a chain of at least "
                         "four elements; %s has %d"
                         % (lattice.name, lattice.size))
    vectors = list(all_vectors(lattice, arity, limit))
    if arity not in (2, 3):
        raise ValueError("example1 runs at arity 2 or 3, not %d" % arity)
    rows = _VerdictRows(lattice, arity)
    for a, x in enumerate(vectors):
        g = rows(RelationKind.G_COMONOTONE, x)
        union = (rows(RelationKind.COMONOTONE, x)
                 | rows(RelationKind.COMPARABLE, x))
        # arity 2: any difference breaks closure; arity 3: a g-comonotone
        # y outside the union is the strictness witness
        found = g ^ union if arity == 2 else g & ~union
        if found:
            b = _lowest(found)
            cases = a * len(vectors) + b + 1
            if arity == 2:
                return SuiteResult(
                    "example1", False, cases,
                    ["closure breaks at x=%s y=%s: g=%s union=%s"
                     % (format_vector(lattice, x),
                        format_vector(lattice, vectors[b]),
                        bool(g >> b & 1), bool(union >> b & 1))])
            return SuiteResult(
                "example1", True, cases,
                ["strictness witness: y=%s is g-comonotone with "
                 "x=%s yet neither comonotone nor comparable"
                 % (format_vector(lattice, vectors[b]),
                    format_vector(lattice, x))])
    cases = len(vectors) ** 2
    if arity == 2:
        return SuiteResult("example1", True, cases,
                           ["g-comonotone region = comonotone region union "
                            "comparable region, for every x"])
    return SuiteResult("example1", False, cases,
                       ["no strictness witness exists at arity 3"])


def suite_lemmas(lattice: Lattice, arity: int, seed: int = 0,
                 samples: int = 50) -> SuiteResult:
    """lemmas: the small always-true implications.

    Covers: comonotone or comparable vectors are g-comonotone and
    dually so; constant vectors are g-comonotone with everything;
    inf- or sup-homogeneity forces idempotency, as does the Boolean
    pair; the g-quantified supremal/infimal axioms imply the
    comonotone-quantified ones; seeded random capacities yield
    integrals passing all ten axioms.  The constant-vector and
    integral lemmas only hold on distributive lattices; elsewhere their
    failures are counted on one "(recorded)" line each, as thm1 does.
    """
    details = []
    cases = 0
    failures = []
    distributive = is_distributive(lattice)
    constant_failures = failures if distributive else []
    integral_failures = failures if distributive else []

    vectors = list(all_vectors(lattice, arity, 10 ** 5))
    rows = _VerdictRows(lattice, arity)
    constants = [encode((c,) * arity, lattice.size)
                 for c in range(lattice.size)]
    # per constant c, the x not g-comonotone (or dually) with (c,...,c)
    outliers = [[] for _ in constants]
    for x in vectors:
        both = (rows(RelationKind.G_COMONOTONE, x)
                & rows(RelationKind.DUAL_G_COMONOTONE, x))
        broken = ((rows(RelationKind.COMONOTONE, x)
                   | rows(RelationKind.COMPARABLE, x)) & ~both)
        while broken:
            b = _lowest(broken)
            broken &= broken - 1
            failures.append("relation inclusion breaks at x=%s y=%s"
                            % (format_vector(lattice, x),
                               format_vector(lattice, vectors[b])))
        for c, pos in enumerate(constants):
            if not both >> pos & 1:
                outliers[c].append(x)
    cases += len(vectors) ** 2
    details.append("relation inclusions checked on %d pairs"
                   % (len(vectors) ** 2))

    for c, xs in enumerate(outliers):
        const = (c,) * arity
        for x in xs:
            constant_failures.append(
                "constant vector %s not g-comonotone with %s"
                % (format_vector(lattice, const), format_vector(lattice, x)))
    cases += lattice.size * len(vectors)
    details.append("constant-vector lemma checked on %d pairs"
                   % (lattice.size * len(vectors)))

    tables = sample_aggregations(lattice, arity, samples, seed)
    implications = (
        (AxiomKind.INF_HOMOGENEOUS, AxiomKind.IDEMPOTENT),
        (AxiomKind.SUP_HOMOGENEOUS, AxiomKind.IDEMPOTENT),
        (AxiomKind.G_COMONOTONE_SUPREMAL, AxiomKind.COMONOTONE_SUPREMAL),
        (AxiomKind.G_COMONOTONE_INFIMAL, AxiomKind.COMONOTONE_INFIMAL),
    )
    for f in tables:
        checks = {kind: axiom_check(f, kind).holds for kind in AxiomKind}
        cases += 1
        for premise, conclusion in implications:
            if checks[premise] and not checks[conclusion]:
                failures.append("%s holds but %s fails on %s"
                                % (premise.value, conclusion.value,
                                   list(f.values)))
        if (checks[AxiomKind.BOOLEAN_INF_HOMOGENEOUS]
                and checks[AxiomKind.BOOLEAN_SUP_HOMOGENEOUS]
                and not checks[AxiomKind.IDEMPOTENT]):
            failures.append("Boolean homogeneity pair without idempotency "
                            "on %s" % list(f.values))
    details.append("implication lemmas checked on %d sampled tables"
                   % len(tables))

    caps = sample_capacities(lattice, arity, max(1, samples // 5), seed)
    for m in caps:
        f = sugeno_table(m)
        cases += 1
        for kind in AxiomKind:
            if not axiom_check(f, kind).holds:
                integral_failures.append("integral of %r fails %s"
                                         % (m.values, kind.value))
    details.append("integral compliance checked on %d seeded capacities"
                   % len(caps))
    if not distributive:
        for lemma, found in (("constant-vector", constant_failures),
                             ("integral-axiom", integral_failures)):
            first = ", first: %s" % found[0] if found else ""
            details.append("non-distributive lattice: %d %s failures%s "
                           "(recorded)" % (len(found), lemma, first))

    details.extend(failures[:5])
    if len(failures) > 5:
        details.append("... %d further failures" % (len(failures) - 5))
    return SuiteResult("lemmas", not failures, cases, details)


def run_scope(scope: str, lattice: Lattice, arity: int,
              seed: int = 0, limit: int = 10 ** 7) -> list:
    """Run one scope (or all of them) and return SuiteResult list."""
    if scope == "thm1":
        return [suite_duality(lattice, arity, limit)]
    if scope == "thm2":
        return [suite_four_equivalences(lattice, arity, limit)]
    if scope == "thm3":
        return [suite_characterizations(lattice, arity)]
    if scope == "prop1":
        return [suite_chain_characterization(lattice, arity)]
    if scope == "example1":
        return [suite_region_closure(lattice, arity, limit)]
    if scope == "lemmas":
        return [suite_lemmas(lattice, arity, seed)]
    if scope == "all":
        results = [suite_duality(lattice, arity, limit)]
        runners = (
            ("thm2", lambda: suite_four_equivalences(lattice, arity, limit)),
            ("thm3", lambda: suite_characterizations(lattice, arity)),
            ("prop1", lambda: suite_chain_characterization(lattice, arity)),
            ("example1", lambda: suite_region_closure(lattice, arity, limit)),
        )
        for name, runner in runners:
            try:
                results.append(runner())
            except (NotDistributive, ValueError,
                    EnumerationTooLarge) as exc:
                results.append(SuiteResult(name, True, 0,
                                           ["skipped: %s" % exc],
                                           skipped=True))
        results.append(suite_lemmas(lattice, arity, seed))
        return results
    raise ValueError("unknown scope %r (choose from %s)"
                     % (scope, ", ".join(SCOPES)))
