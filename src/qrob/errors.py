"""Exception types shared across the package."""

from __future__ import annotations


class QrobError(Exception):
    """Base class for all expected failures raised by this package."""


class DimensionMismatchError(QrobError):
    """Two exterior-algebra values live in different ambient dimensions."""


class NonHomogeneousError(QrobError):
    """An operation that requires a homogeneous input received a mixed one."""


class RingMismatchError(QrobError):
    """Two ring elements belong to different rings."""


class RingValidationError(QrobError):
    """A constructed or deserialized ring violates a structural invariant."""


class IdealUndefinedError(QrobError):
    """The product ideal has no layer below degree 2 or above the top degree."""


class InvalidSystemError(QrobError):
    """A Kronecker system fails its definition: a zero diag * cofactor, a
    family of the wrong size or degree, or a product off its pattern.

    `detail` names a wrong product's pair by role, as ("left[0]", "right[1]").
    """

    def __init__(self, message: str, detail: tuple | None = None):
        super().__init__(message)
        self.detail = detail


class MissingPresentationError(QrobError):
    """Generator-based search needs a monomial presentation the ring lacks."""


class ShapeMismatchError(QrobError):
    """A homomorphism witness does not match its ring or ambient dimension."""


class ParseError(QrobError):
    """A DSL string failed to parse; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.text = text


class VerificationFailure(QrobError):
    """A certificate, witness, or document failed re-verification."""
