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

Every verdict of a relation depends only on the set of letters
(x_i, y_i) a pair uses, so the suites decide on the letter tables kept
on the lattice.  At arity n >= 2 g and its dual agree exactly when their
tables are equal (``relations._dual_agrees``), the four kinds of thm2
when ``relations._four_kinds_agree`` says so, and example1's closure
holds at arity 2 when the g table is ``_same_order``'s.  thm1 counts its
divergences on the tables (``relations._pair_count``).  Only a witness
is found by scanning the anchors' regions (``_first_split``).  thm1,
thm2 and lemmas refuse more than ``limit`` k^2n vector pairs, scanned or
not.  Letter tables and pair plans are kept on the lattice, so under
``all`` each is built once and shared by every suite.
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
    _dual_agrees,
    _four_kinds_agree,
    _pair_count,
    _positions,
    _related,
    all_vectors,
    compatibility_table,
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


def _anchor_vectors(lattice: Lattice, arity: int, limit: int) -> list:
    """Every vector, listed for a suite that may scan each as an anchor:
    more than ``limit`` vectors or k^2n vector pairs are refused first."""
    vectors = all_vectors(lattice, arity, limit)
    guard_size(lattice.size, 2 * arity, "vector pairs", limit)
    return list(vectors)


def _first_split(lattice: Lattice, vectors: list, kinds: tuple,
                 split) -> tuple | None:
    """The first vector pair (x, y), in product order, that ``split`` of
    x's regions of ``kinds`` (``_related``, as sets of positions) holds:
    (cases, x, y, verdicts), the pairs up to it, x and y formatted, and
    whether each kind relates them.  The kinds are symmetric, so the
    first anchor x with a split has the first pair; None if none does."""
    for a, x in enumerate(vectors):
        regions = [set(_related(lattice, kind, x)) for kind in kinds]
        found = split(*regions)
        if found:
            b = min(found)
            return (a * len(vectors) + b + 1, format_vector(lattice, x),
                    format_vector(lattice, vectors[b]),
                    [b in ys for ys in regions])
    return None


def _same_order(lattice: Lattice) -> list:
    """Per letter (a, b), a k^2-bit row like compatibility_table's: the
    letters comonotone with it or ordered the same way, c <= d where
    a <= b and c >= d where a >= b.  So a vector pair of two letters is
    comonotone or comparable when they are in each other's rows."""
    k = lattice.size
    below = sum(up << a * k for a, up in enumerate(lattice._up))
    above = sum(down << a * k for a, down in enumerate(lattice._down))
    return [row | (below if below >> letter & 1 else 0)
            | (above if above >> letter & 1 else 0)
            for letter, row in enumerate(
                compatibility_table(lattice, RelationKind.COMONOTONE))]


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
    vectors = _anchor_vectors(lattice, arity, limit)
    distributive = is_distributive(lattice)
    divergences = 0
    first = None
    if not _dual_agrees(lattice, arity):
        kinds = RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE
        g, dual = (compatibility_table(lattice, kind) for kind in kinds)
        both = [g_row & dual_row for g_row, dual_row in zip(g, dual)]
        divergences = (_pair_count(g, arity) + _pair_count(dual, arity)
                       - 2 * _pair_count(both, arity))
        _, x, y, verdicts = _first_split(lattice, vectors, kinds, set.__xor__)
        first = "x=%s y=%s g=%s dual=%s" % (x, y, *verdicts)
    cases = len(vectors) ** 2
    details = []
    if distributive:
        passed = divergences == 0
        details.append("distributive lattice: expecting full agreement")
        if first is not None:
            details.append("DIVERGENCE " + first)
    else:
        passed = True
        if first is None:
            details.append("non-distributive lattice: no divergence found "
                           "(recorded)")
        else:
            details.append("non-distributive lattice: %d divergent pairs, "
                           "first %s (recorded)" % (divergences, first))
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
    vectors = _anchor_vectors(lattice, arity, limit)
    kinds = (RelationKind.G_COMONOTONE, RelationKind.DUAL_G_COMONOTONE,
             RelationKind.SUBSETWISE_JOIN, RelationKind.SUBSETWISE_MEET)
    # the scan runs only to find the first split the letters promise
    if not _four_kinds_agree(lattice, arity):
        cases, x, y, verdicts = _first_split(
            lattice, vectors, kinds,
            lambda *regions: set.union(*regions) - set.intersection(*regions))
        return SuiteResult(
            "thm2", False, cases,
            ["conditions split at x=%s y=%s: %s"
             % (x, y, " ".join("%s=%s" % (kind.value, holds)
                               for kind, holds in zip(kinds, verdicts)))])
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
    if arity not in (2, 3):
        raise ValueError("example1 runs at arity 2 or 3, not %d" % arity)
    vectors = list(all_vectors(lattice, arity, limit))
    kinds = (RelationKind.G_COMONOTONE, RelationKind.COMONOTONE,
             RelationKind.COMPARABLE)
    # arity 2: closure holds on agreeing letter tables, else breaks at any
    # difference; arity 3: a g-comonotone y outside the union is a witness
    closed = arity == 2 and compatibility_table(
        lattice, RelationKind.G_COMONOTONE) == _same_order(lattice)
    split = None if closed else _first_split(
        lattice, vectors, kinds, lambda g, *union: (
            g ^ set.union(*union) if arity == 2 else g.difference(*union)))
    if split is not None:
        cases, x, y, (g, comonotone, comparable) = split
        if arity == 2:
            return SuiteResult(
                "example1", False, cases,
                ["closure breaks at x=%s y=%s: g=%s union=%s"
                 % (x, y, g, comonotone or comparable)])
        return SuiteResult(
            "example1", True, cases,
            ["strictness witness: y=%s is g-comonotone with "
             "x=%s yet neither comonotone nor comparable" % (y, x)])
    cases = len(vectors) ** 2
    if arity == 2:
        return SuiteResult("example1", True, cases,
                           ["g-comonotone region = comonotone region union "
                            "comparable region, for every x"])
    return SuiteResult("example1", False, cases,
                       ["no strictness witness exists at arity 3"])


def _verdicts_on_demand(f):
    """kind -> whether f satisfies it, each axiom checked the first time
    it is asked for and not again."""
    verdicts = {}

    def holds(kind):
        if kind not in verdicts:
            verdicts[kind] = axiom_check(f, kind).holds
        return verdicts[kind]
    return holds


def suite_lemmas(lattice: Lattice, arity: int, seed: int = 0,
                 samples: int = 50, limit: int = 10 ** 7) -> SuiteResult:
    """lemmas: the small always-true implications.

    Covers: comonotone or comparable vectors are g-comonotone and
    dually so; constant vectors are g-comonotone with everything;
    inf- or sup-homogeneity forces idempotency, as does the Boolean
    pair; the g-quantified supremal/infimal axioms imply the
    comonotone-quantified ones; seeded random capacities yield
    integrals passing all ten axioms.  The constant-vector and
    integral lemmas only hold on distributive lattices; elsewhere their
    failures are counted on one "(recorded)" line each, as thm1 does.

    The relation lemmas read letter tables: a pair is related when every
    two of its letters (x_i, y_i), equal ones included, are compatible.
    So at n >= 2 inclusion fails exactly at two letters (a, b), (c, d) in
    each other's ``_same_order`` rows, yet not g- and dual-compatible, at
    x = (a,c,...,c), y = (b,d,...,d).  No lattice has them: if a <= c and
    b <= d, both sides of the identities are a v b and c ^ d; if a <= b
    and c <= d, they are b ^ d and a v c.
    """
    details = []
    cases = 0
    failures = []
    distributive = is_distributive(lattice)
    constant_failures = failures if distributive else []
    integral_failures = failures if distributive else []

    vectors = _anchor_vectors(lattice, arity, limit)
    k = lattice.size
    both = [g & dual for g, dual in zip(
        compatibility_table(lattice, RelationKind.G_COMONOTONE),
        compatibility_table(lattice, RelationKind.DUAL_G_COMONOTONE))]
    if arity > 1:
        for letter, row in enumerate(_same_order(lattice)):
            broken = row & ~both[letter]
            if broken:
                (a, b), (c, d) = (divmod(letter, k),
                                  divmod(next(_positions(broken)), k))
                failures.append("relation inclusion breaks at x=%s y=%s" % (
                    format_vector(lattice, (a,) + (c,) * (arity - 1)),
                    format_vector(lattice, (b,) + (d,) * (arity - 1))))
                break
    cases += len(vectors) ** 2
    details.append("relation inclusions checked on %d pairs"
                   % (len(vectors) ** 2))

    for c in range(k):
        const = format_vector(lattice, (c,) * arity)
        for x in vectors:
            digits = set(x)
            if not all(both[d * k + c] >> w * k + c & 1
                       for d in digits for w in digits):
                constant_failures.append(
                    "constant vector %s not g-comonotone with %s"
                    % (const, format_vector(lattice, x)))
    cases += k * len(vectors)
    details.append("constant-vector lemma checked on %d pairs"
                   % (k * len(vectors)))

    # drawn first: too many subsets are refused before any cube is built
    caps = sample_capacities(lattice, arity, max(1, samples // 5), seed)
    tables = sample_aggregations(lattice, arity, samples, seed)
    implications = (
        (AxiomKind.INF_HOMOGENEOUS, AxiomKind.IDEMPOTENT),
        (AxiomKind.SUP_HOMOGENEOUS, AxiomKind.IDEMPOTENT),
        (AxiomKind.G_COMONOTONE_SUPREMAL, AxiomKind.COMONOTONE_SUPREMAL),
        (AxiomKind.G_COMONOTONE_INFIMAL, AxiomKind.COMONOTONE_INFIMAL),
    )
    # every sample is an aggregation function by construction, so the
    # monotone-and-boundary gate is not run on them; a conclusion is
    # checked only once its premise holds, and each axiom at most once
    for f in tables:
        holds = _verdicts_on_demand(f)
        cases += 1
        for premise, conclusion in implications:
            if holds(premise) and not holds(conclusion):
                failures.append("%s holds but %s fails on %s"
                                % (premise.value, conclusion.value,
                                   list(f.values)))
        if (holds(AxiomKind.BOOLEAN_INF_HOMOGENEOUS)
                and holds(AxiomKind.BOOLEAN_SUP_HOMOGENEOUS)
                and not holds(AxiomKind.IDEMPOTENT)):
            failures.append("Boolean homogeneity pair without idempotency "
                            "on %s" % list(f.values))
    details.append("implication lemmas checked on %d sampled tables"
                   % len(tables))

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
    runners = {
        "thm1": lambda: suite_duality(lattice, arity, limit),
        "thm2": lambda: suite_four_equivalences(lattice, arity, limit),
        "thm3": lambda: suite_characterizations(lattice, arity),
        "prop1": lambda: suite_chain_characterization(lattice, arity),
        "example1": lambda: suite_region_closure(lattice, arity, limit),
        "lemmas": lambda: suite_lemmas(lattice, arity, seed, limit=limit),
    }
    if scope in runners:
        return [runners[scope]()]
    if scope != "all":
        raise ValueError("unknown scope %r (choose from %s)"
                         % (scope, ", ".join(SCOPES)))
    results = []
    for name, runner in runners.items():
        try:
            results.append(runner())
        except (NotDistributive, ValueError, EnumerationTooLarge) as exc:
            if name in ("thm1", "lemmas"):  # they apply to every lattice
                raise
            results.append(SuiteResult(name, True, 0, ["skipped: %s" % exc],
                                       skipped=True))
    return results
