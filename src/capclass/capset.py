"""Quads, caps, first quad closure, completeness, and extension candidates."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .errors import DimensionMismatchError, EmptyInputError, NotACapError
from .gf2 import Point, PointSet, _span_masks, affine_dim

# A quad is four distinct points whose XOR is zero; a cap is a quad-free set.
#
# Lemma (pair form of quad-freeness).  A set S is quad-free iff the XORs of
# all unordered pairs of distinct elements are themselves pairwise distinct.
# Proof: if {a,b} != {c,d} but a^b = c^d, the pairs cannot share an element
# (a = c would force b = d), so a,b,c,d are four distinct points with
# a^b^c^d = 0, a quad.  Conversely a quad {a,b,c,d} gives a^b = c^d with
# {a,b} != {c,d}.  The pair form is what the O(k^2) checks below use; the
# O(k^4) four-subset scan is kept as the oracle ``_is_cap_exhaustive``.


def is_quad(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the four points are pairwise distinct and XOR to zero."""
    n = a.n
    if b.n != n or c.n != n or d.n != n:
        raise DimensionMismatchError("quad test on points with mixed ambient dimensions")
    masks = (a.mask, b.mask, c.mask, d.mask)
    if len(set(masks)) != 4:
        return False
    return masks[0] ^ masks[1] ^ masks[2] ^ masks[3] == 0


def _find_quad_masks(masks: Sequence[int]) -> tuple[int, int, int, int] | None:
    seen: dict[int, tuple[int, int]] = {}
    k = len(masks)
    for i in range(k):
        a = masks[i]
        for j in range(i + 1, k):
            b = masks[j]
            d = a ^ b
            if d in seen:
                c, e = seen[d]
                return (c, e, a, b)
            seen[d] = (a, b)
    return None


def _is_cap_exhaustive(masks: Sequence[int]) -> bool:
    return all(a ^ b ^ c ^ d != 0 for a, b, c, d in combinations(masks, 4))


def find_quad(s: PointSet) -> tuple[Point, Point, Point, Point] | None:
    """Some quad contained in s, or None if s is a cap."""
    if len(s) == 0:
        raise EmptyInputError("quad search on the empty set")
    hit = _find_quad_masks(s.sorted_masks())
    if hit is None:
        return None
    return tuple(Point(m, s.n) for m in hit)


def is_cap(s: PointSet) -> bool:
    """True iff no four distinct points of s XOR to zero (the pair form, see the lemma above)."""
    return find_quad(s) is None


@dataclass(frozen=True, init=False, repr=False, slots=True)
class Cap:
    """A quad-free point set with its affine dimension cached.

    Construction validates quad-freeness eagerly and raises
    :class:`NotACapError` otherwise.
    """

    points: PointSet
    dim: int = field(compare=False)

    def __init__(self, points: PointSet):
        quad = _find_quad_masks(points.sorted_masks())
        if quad is not None:
            raise NotACapError(f"points {quad} form a quad")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dim", affine_dim(points))

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def size(self) -> int:
        return len(self.points)

    def sorted_masks(self) -> tuple[int, ...]:
        return self.points.sorted_masks()

    def __repr__(self) -> str:
        return f"Cap(n={self.n}, size={self.size}, dim={self.dim})"


def _qc1_masks(masks: Sequence[int], span_size: int) -> set[int]:
    """masks plus every XOR of three of them; stops once it fills their span of span_size points."""
    closure = set(masks)
    k = len(masks)
    for i in range(k):
        a = masks[i]
        for j in range(i + 1, k):
            if len(closure) == span_size:
                return closure
            ab = a ^ masks[j]
            for l in range(j + 1, k):
                closure.add(ab ^ masks[l])
    return closure


def quad_closure_1(s: PointSet) -> PointSet:
    """s together with the XOR of every three distinct elements of s."""
    return PointSet(s.n, _qc1_masks(s.sorted_masks(), 1 << affine_dim(s)))


def is_complete(c: Cap) -> bool:
    """True iff the first quad closure of c already fills its affine span.

    Each XOR of three points is an affine combination, so the closure lies
    in the span; it fills the span exactly when it has 2^dim points.
    """
    return len(_qc1_masks(c.sorted_masks(), 1 << c.dim)) == 1 << c.dim


def extension_candidates(c: Cap) -> PointSet:
    """Points of aff(c) whose addition keeps c a cap; empty iff c is complete."""
    masks = c.sorted_masks()
    span = _span_masks(masks)
    return PointSet(c.n, span - _qc1_masks(masks, len(span)))
