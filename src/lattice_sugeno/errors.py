"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class UnknownElement(Error):
    """An element name or index does not belong to the lattice."""


class CyclicOrder(Error):
    """The declared order relation contains a cycle."""


class NoBounds(Error):
    """The order lacks a unique bottom or a unique top element."""


class NotALattice(Error):
    """Some pair of elements has no meet or no join, or the order is not
    reflexive or not transitive."""

    def __init__(self, message: str, pair: tuple | None = None):
        super().__init__(message)
        self.pair = pair


class NotDistributive(Error):
    """The lattice fails distributivity.

    ``witness`` is a triple of element indices (x, y, z) with
    x ^ (y v z) != (x ^ y) v (x ^ z).
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ArityMismatch(Error):
    """Two objects that must share an arity do not."""


class LatticeMismatch(Error):
    """Two objects that must live over the same lattice do not."""


class EnumerationTooLarge(Error):
    """An exhaustive enumeration would exceed the configured limit."""


def guard_size(base: int, exp: int, things: str, limit: int = 10 ** 7):
    """Raise EnumerationTooLarge when base^exp exceeds limit.

    Past limit's bit length the power is never built: base >= 2 makes
    it larger than limit already.
    """
    if base > 1 and exp > limit.bit_length() or base ** exp > limit:
        power = "%d" % base if exp == 1 else "%d^%d" % (base, exp)
        raise EnumerationTooLarge("%s %s exceed the limit of %d"
                                  % (power, things, limit))


class InvalidCapacity(Error):
    """A set function fails the capacity requirements.

    ``violations`` lists every defect found, boundary defects first.
    Entries are ``("boundary", subset_mask)`` or
    ``("monotonicity", smaller_mask, larger_mask)``.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


class BoundaryViolation(InvalidCapacity):
    """The empty set does not map to bottom or the full set to top."""


class MonotonicityViolation(InvalidCapacity):
    """A subset maps above one of its supersets."""


class NotAggregation(Error):
    """A function table is not monotone or breaks the boundary conditions.

    ``witness`` is a point tuple (boundary defect) or a pair of point
    tuples (monotonicity defect).
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ParseError(Error):
    """A text input could not be parsed.

    Rendered as ``path:line: message`` so tooling can jump to the spot.
    """

    def __init__(self, message: str, path: str = "<input>", line: int | None = None):
        self.bare_message = message
        self.path = path
        self.line = line
        where = path if line is None else "%s:%d" % (path, line)
        super().__init__("%s: %s" % (where, message))
