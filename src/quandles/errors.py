"""Shared exception types.

Enumeration routines walk potentially infinite objects (closures of
automorphism groups, Schreier balls), so every walk takes an explicit cap
and raises BoundExceededError instead of looping forever.  Construction
problems (bad tables, non-automorphisms) raise ConstructionError with a
witness attached, so callers can report exactly what failed.
"""

from __future__ import annotations

from typing import Optional


class BoundExceededError(RuntimeError):
    """An enumeration hit its cap before closing.

    Attributes:
        what: short tag for the enumeration that overflowed.
        bound: the cap that was hit.
        radius: for a ball, the last radius that was completed within
            the cap, else None.
        vertices: the vertex count of the ball of that radius, else None.
    """

    def __init__(self, what: str, bound: int, radius: Optional[int] = None, vertices: Optional[int] = None):
        message = f"{what}: enumeration exceeded bound {bound}"
        if radius is not None:
            message += f" after radius {radius} ({vertices} vertices)"
        super().__init__(message)
        self.what = what
        self.bound = bound
        self.radius = radius
        self.vertices = vertices


class ConstructionError(ValueError):
    """An input fails the preconditions of a constructor.

    Carries a machine-readable witness (tuple or dict) describing the
    offending entry, e.g. the pair where a map fails to be a homomorphism.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class MalformedTableError(ConstructionError):
    """A binary-operation table is not square or has out-of-range entries."""
