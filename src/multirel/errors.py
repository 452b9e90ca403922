"""Error types and hard limits shared across the package.

All size limits are explicit contract boundaries: exceeding one raises a
typed error instead of silently truncating or grinding through an
exponential computation.
"""

from __future__ import annotations

# Widest destination carrier an MRel may have (masks are machine-word sized).
MASK_CAP = 62

# Largest carrier whose powerset may be materialized as relation columns/rows.
POW_CAP = 16

# Most work one step of the Peleg choice fold may do (distinct unions kept
# times the next element's choices), and most univalent parts
# ``d_subrelations`` may list.
ENUM_CAP = 1 << 20


class MultirelError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(MultirelError):
    """Operands do not have the carrier sizes the operation requires."""


class IdentityShapeMismatch(ShapeMismatch):
    """Identity relation requested with distinct source and destination."""


class CapExceeded(MultirelError):
    """A computation would pass one of the hard size limits."""


class PowersetTooLarge(CapExceeded):
    """A carrier of size > POW_CAP would need its powerset materialized."""


class MaskTooWide(CapExceeded):
    """A subset mask over a carrier of size > MASK_CAP was requested."""


class EnumerationTooLarge(CapExceeded):
    """An enumeration would be too large: Peleg work over ENUM_CAP, an
    exhaustive instance stream over 2^generate.EXHAUSTIVE_BITS instances or
    candidate rows, or rejection sampling past its candidate budget.

    Carries enough context to identify the offending input.
    """

    def __init__(self, message: str, size: int | None = None):
        super().__init__(message)
        self.size = size


class UnknownLaw(MultirelError):
    """Law id not present in the registry."""


class UnboundVariable(MultirelError):
    """A term references a name not bound in the environment."""


class TermSyntaxError(MultirelError):
    """Term text failed to parse; carries position and expectation info."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.position = position
        self.expected = expected
