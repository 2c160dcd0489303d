"""Points, spans, bases, and affine maps of AG(n,2) on int bitmasks.

A point of AG(n,2) is an n-bit integer: coordinate j (1-based) lives in
bit j-1.  Addition is XOR, so every point is its own inverse and the
affine combinations of a set are exactly the XORs of an odd number of
its elements.  All affine questions are reduced to linear ones by
translating by a fixed base point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, EmptyInputError

MAX_DIM = 16


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}, got {n}")


@dataclass(frozen=True)
class Point:
    """A point of AG(n,2), stored as an n-bit mask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    def __xor__(self, other: Point) -> Point:
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot add points with n={self.n} and n={other.n}")
        return Point(self.mask ^ other.mask, self.n)

    def to_bits(self) -> str:
        """Binary string, leftmost character = coordinate 1 (bit 0)."""
        return "".join("1" if self.mask >> j & 1 else "0" for j in range(self.n))

    @classmethod
    def from_bits(cls, bits: str) -> Point:
        mask = 0
        for j, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise ValueError(f"invalid coordinate character {ch!r}")
        return cls(mask, len(bits))

    def __repr__(self) -> str:
        return f"Point({self.to_bits()})"


@dataclass(frozen=True, init=False, repr=False, slots=True)
class PointSet:
    """An immutable, duplicate-free set of points sharing one ambient dimension.

    Membership tests are O(1); iteration is in ascending mask order so
    every downstream computation is deterministic.
    """

    n: int
    masks: frozenset[int]
    _sorted: tuple[int, ...] = field(compare=False)

    def __init__(self, n: int, masks: Iterable[int] = ()):
        _check_dim(n)
        srt = tuple(sorted(set(masks)))
        if srt and not 0 <= srt[0] <= srt[-1] < (1 << n):
            raise ValueError(f"mask out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", frozenset(srt))
        object.__setattr__(self, "_sorted", srt)

    def sorted_masks(self) -> tuple[int, ...]:
        return self._sorted

    def points(self) -> tuple[Point, ...]:
        return tuple(Point(m, self.n) for m in self._sorted)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points())

    def __len__(self) -> int:
        return len(self._sorted)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Point):
            return item.n == self.n and item.mask in self.masks
        return item in self.masks

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, {{{', '.join(str(m) for m in self._sorted)}}})"


class XorBasis:
    """Incremental GF(2) row basis keyed by lowest set bit.

    ``insert`` tracks, per stored vector, which of the inserted vectors
    combine into it (the marker), so ``solve`` reports a combination of
    the original insertions rather than of reduced rows.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict[int, tuple[int, int]] = {}

    def _reduce(self, vec: int, marker: int) -> tuple[int, int]:
        """Clear pivots from vec, lowest first, until none matches; marker follows."""
        table = self.table
        while vec:
            entry = table.get(vec & -vec)
            if entry is None:
                break
            vec ^= entry[0]
            marker ^= entry[1]
        return vec, marker

    def insert(self, vec: int, marker: int = 0) -> bool:
        """Add vec; return False (and change nothing) if it is dependent."""
        r, mk = self._reduce(vec, marker)
        if r:
            self.table[r & -r] = (r, mk)
        return r != 0

    def solve(self, vec: int) -> int | None:
        """Marker combination producing vec, or None if vec is outside the span."""
        r, mk = self._reduce(vec, 0)
        return None if r else mk


@dataclass(frozen=True)
class AffineMap:
    """The map x -> L(x) + b over GF(2); rows[i] is row i of L as a bitmask."""

    n: int
    rows: tuple[int, ...]
    translation: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} matrix rows, got {len(self.rows)}")
        limit = 1 << self.n
        if any(not 0 <= r < limit for r in self.rows) or not 0 <= self.translation < limit:
            raise ValueError("matrix row or translation out of range")

    @classmethod
    def identity(cls, n: int) -> AffineMap:
        return cls(n, tuple(1 << i for i in range(n)), 0)

    def apply_mask(self, x: int) -> int:
        y = self.translation
        for i, row in enumerate(self.rows):
            y ^= ((row & x).bit_count() & 1) << i
        return y

    def __call__(self, p: Point) -> Point:
        if p.n != self.n:
            raise DimensionMismatchError(f"map on n={self.n} applied to point with n={p.n}")
        return Point(self.apply_mask(p.mask), self.n)

    @property
    def is_invertible(self) -> bool:
        xb = XorBasis()
        return all(xb.insert(row) for row in self.rows)

    def columns(self) -> tuple[int, ...]:
        return _transpose(self.rows, self.n)

    def compose(self, other: AffineMap) -> AffineMap:
        """Return self after other: x -> self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatchError("cannot compose maps of different dimensions")
        # column j of the product is self applied to column j of other, less self's translation
        cols = [self.apply_mask(col) ^ self.translation for col in other.columns()]
        return AffineMap(self.n, _transpose(cols, self.n), self.apply_mask(other.translation))

    def inverse(self) -> AffineMap:
        """Inverse map; raises ValueError if the linear part is singular."""
        # column i of the inverse is the combination of columns solving e_i
        xb = XorBasis()
        for j, col in enumerate(self.columns()):
            if not xb.insert(col, 1 << j):
                raise ValueError("affine map is not invertible")
        inv = AffineMap(self.n, _transpose([xb.solve(1 << i) for i in range(self.n)], self.n), 0)
        return AffineMap(self.n, inv.rows, inv.apply_mask(self.translation))


def _transpose(vectors: Sequence[int], n: int) -> tuple[int, ...]:
    """Bit-matrix transpose: bit i of entry j is bit j of vectors[i]."""
    out = [0] * n
    for i, vec in enumerate(vectors):
        bit = 1 << i
        vec &= (1 << n) - 1
        while vec:
            low = vec & -vec
            vec ^= low
            out[low.bit_length() - 1] |= bit
    return tuple(out)


def _columns_of(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    cols = []
    while mask:
        low = mask & -mask
        mask ^= low
        cols.append(low.bit_length() - 1)
    return cols


def _affine_elimination(masks: Sequence[int]) -> tuple[XorBasis, list[int]]:
    """Eliminate masks[i] ^ masks[0] for i >= 1 under marker bit i.

    Returns the solver and the indices whose insert failed: the points
    that depend on the ones before them.  The others, with masks[0],
    form the greedy affine basis, and the solver's markers name subsets
    of it.  Every affine question about a point set reaches here first,
    so this is where the empty set is refused.
    """
    if not masks:
        raise EmptyInputError("the empty set has no affine span")
    t = masks[0]
    xb = XorBasis()
    dependent = [i for i in range(1, len(masks)) if not xb.insert(masks[i] ^ t, 1 << i)]
    return xb, dependent


def _span_masks(masks: Sequence[int]) -> set[int]:
    # eliminate before reading masks[0]: the elimination refuses an empty set
    rows = _affine_elimination(masks)[0].table.values()
    span = [masks[0]]
    for vec, _ in rows:
        span += [s ^ vec for s in span]
    return set(span)


def _affine_rank(masks: Sequence[int]) -> int:
    return len(masks) - 1 - len(_affine_elimination(masks)[1])


def affine_span(s: PointSet) -> PointSet:
    """All odd-count XOR combinations of s: the smallest flat containing it."""
    return PointSet(s.n, _span_masks(s.sorted_masks()))


def affine_dim(s: PointSet) -> int:
    """Dimension of the affine span of s."""
    return _affine_rank(s.sorted_masks())


def extract_basis(s: PointSet) -> tuple[Point, ...]:
    """Deterministic affine basis: scan ascending masks, keep rank-increasing points."""
    masks = s.sorted_masks()
    dependent = set(_affine_elimination(masks)[1])
    return tuple(Point(m, s.n) for i, m in enumerate(masks) if i not in dependent)


def _solve_support(xb: XorBasis, t: int, x: int) -> int | None:
    """Odd subset of the basis behind xb (first point t) XORing to x; None outside its span."""
    marker = xb.solve(x ^ t)
    if marker is None:
        return None
    # the translate itself joins the combination whenever the count is even
    if marker.bit_count() & 1 == 0:
        marker |= 1
    return marker


def apply_affine_map(t: AffineMap, s: PointSet) -> PointSet:
    """Image of s under t (a set: collisions collapse when t is singular)."""
    if t.n != s.n:
        raise DimensionMismatchError(f"map on n={t.n} applied to set with n={s.n}")
    return PointSet(s.n, (t.apply_mask(m) for m in s.sorted_masks()))


def random_invertible_affine(n: int, seed: int) -> AffineMap:
    """Seeded random invertible affine map (Mersenne Twister via random.Random).

    Rows of the linear part are drawn one at a time and redrawn while
    dependent, so the result is deterministic for a given seed on every
    platform.
    """
    _check_dim(n)
    rng = random.Random(seed)
    rows: list[int] = []
    xb = XorBasis()
    while len(rows) < n:
        candidate = rng.getrandbits(n)
        if xb.insert(candidate):
            rows.append(candidate)
    translation = rng.getrandbits(n)
    return AffineMap(n, tuple(rows), translation)
