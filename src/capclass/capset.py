"""Quads, caps, first quad closure, completeness, and extension candidates."""

from __future__ import annotations

from typing import Sequence

from .errors import EmptyInputError, MixedDimensionError, NotACapError
from .gf2 import Point, PointSet, _span_masks, affine_dim

# A quad is four distinct points whose XOR is zero; a cap is a quad-free set.
#
# Lemma (pair form of quad-freeness).  A set S is quad-free iff the XORs of
# all unordered pairs of distinct elements are themselves pairwise distinct.
# Proof: if {a,b} != {c,d} but a^b = c^d, the pairs cannot share an element
# (a = c would force b = d), so a,b,c,d are four distinct points with
# a^b^c^d = 0, a quad.  Conversely a quad {a,b,c,d} gives a^b = c^d with
# {a,b} != {c,d}.  The pair form is what the O(k^2) checks below use; the
# O(k^4) four-subset scan is kept as an oracle behind ``exhaustive=``.


def is_quad(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the four points are pairwise distinct and XOR to zero."""
    n = a.n
    if b.n != n or c.n != n or d.n != n:
        raise MixedDimensionError("quad test on points with mixed ambient dimensions")
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
    from itertools import combinations

    return all(a ^ b ^ c ^ d != 0 for a, b, c, d in combinations(masks, 4))


def is_cap(s: PointSet, *, exhaustive: bool = False) -> bool:
    """True iff no four distinct points of s XOR to zero.

    Uses the pair form of quad-freeness (see the lemma above); pass
    ``exhaustive=True`` to run the literal four-subset scan instead.
    """
    if len(s) == 0:
        raise EmptyInputError("cap test on the empty set")
    masks = s.sorted_masks()
    if exhaustive:
        return _is_cap_exhaustive(masks)
    return _find_quad_masks(masks) is None


def find_quad(s: PointSet) -> tuple[Point, Point, Point, Point] | None:
    """Some quad contained in s, or None if s is a cap."""
    if len(s) == 0:
        raise EmptyInputError("quad search on the empty set")
    hit = _find_quad_masks(s.sorted_masks())
    if hit is None:
        return None
    return tuple(Point(m, s.n) for m in hit)


class Cap:
    """A quad-free point set with its affine dimension cached.

    Construction validates quad-freeness eagerly and raises
    :class:`NotACapError` otherwise.
    """

    __slots__ = ("points", "dim")

    def __init__(self, points: PointSet):
        if len(points) == 0:
            raise EmptyInputError("a cap needs at least one point")
        quad = _find_quad_masks(points.sorted_masks())
        if quad is not None:
            raise NotACapError(f"points {quad} form a quad")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dim", affine_dim(points))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cap is immutable")

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def size(self) -> int:
        return len(self.points)

    def sorted_masks(self) -> tuple[int, ...]:
        return self.points.sorted_masks()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cap):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Cap(n={self.n}, size={self.size}, dim={self.dim})"


def _qc1_masks(masks: Sequence[int]) -> set[int]:
    closure = set(masks)
    k = len(masks)
    for i in range(k):
        a = masks[i]
        for j in range(i + 1, k):
            ab = a ^ masks[j]
            for l in range(j + 1, k):
                closure.add(ab ^ masks[l])
    return closure


def quad_closure_1(s: PointSet) -> PointSet:
    """s together with the XOR of every three distinct elements of s."""
    if len(s) == 0:
        raise EmptyInputError("quad closure of the empty set")
    return PointSet(s.n, _qc1_masks(s.sorted_masks()))


def is_complete(c: Cap) -> bool:
    """True iff the first quad closure of c already fills its affine span."""
    masks = c.sorted_masks()
    return _qc1_masks(masks) == _span_masks(masks)


def extension_candidates(c: Cap) -> PointSet:
    """Points of aff(c) whose addition keeps c a cap; empty iff c is complete."""
    masks = c.sorted_masks()
    return PointSet(c.n, _span_masks(masks) - _qc1_masks(masks))
