"""Basis/dependent decompositions, extended types, and basis exchange.

A set S with an ordered affine basis B splits into B and the dependent
set D = S \\ B.  Each dependent point is the XOR of a unique odd subset
of B, encoded here as a bitmask over basis positions (bit i = basis[i]).
The multiset of support sizes together with all pairwise intersection
sizes is the basis's extended type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .capset import Cap
from .errors import (
    BadIndexError,
    ExchangeHypothesisViolated,
    InvalidBasisError,
    InvariantError,
    TooLargeError,
)
from .gf2 import (
    Point,
    PointSet,
    XorBasis,
    _affine_rank,
    _solve_support,
    _support_solver,
    extract_basis,
)

_TYPE_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _canonical_type(sizes: tuple[int, ...], pairs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reorder dependents: sizes non-increasing, then pair sizes lex-minimal."""
    r = len(sizes)
    if r == 0:
        return (), ()
    if r == 1:
        return sizes, ()
    key = (sizes, pairs)
    hit = _TYPE_CACHE.get(key)
    if hit is not None:
        return hit
    pair_at: dict[tuple[int, int], int] = {}
    idx = 0
    for i in range(r):
        for j in range(i + 1, r):
            pair_at[(i, j)] = pairs[idx]
            idx += 1
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for perm in permutations(range(r)):
        s = tuple(sizes[p] for p in perm)
        if any(s[a] < s[a + 1] for a in range(r - 1)):
            continue
        q = []
        for a in range(r):
            pa = perm[a]
            for b in range(a + 1, r):
                pb = perm[b]
                q.append(pair_at[(pa, pb) if pa < pb else (pb, pa)])
        cand = (s, tuple(q))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise InvariantError(f"no dependent order keeps the sizes {sizes} non-increasing")
    _TYPE_CACHE[key] = best
    return best


@dataclass(frozen=True, order=True)
class ExtendedType:
    """Support sizes plus pairwise intersection sizes, canonically ordered.

    Two bases whose dependents can be permuted into one another compare
    equal: construction reorders the dependents so that the sizes are
    non-increasing and, among such orders, the pair sizes are
    lexicographically minimal.
    """

    sizes: tuple[int, ...]
    pair_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.sizes)
        if len(self.pair_sizes) != r * (r - 1) // 2:
            raise ValueError(f"expected {r * (r - 1) // 2} pair sizes for {r} dependents")
        sizes, pairs = _canonical_type(tuple(self.sizes), tuple(self.pair_sizes))
        idx = 0
        for i in range(r):
            for j in range(i + 1, r):
                if pairs[idx] > min(sizes[i], sizes[j]):
                    raise ValueError("pair intersection exceeds a member size")
                idx += 1
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "pair_sizes", pairs)

    @classmethod
    def from_supports(cls, supports: Sequence[int]) -> ExtendedType:
        sizes = tuple(s.bit_count() for s in supports)
        pairs = []
        r = len(supports)
        for i in range(r):
            for j in range(i + 1, r):
                pairs.append((supports[i] & supports[j]).bit_count())
        return cls(sizes, tuple(pairs))

    def __str__(self) -> str:
        if not self.sizes:
            return "independent"
        body = "-".join(str(s) for s in self.sizes)
        if len(self.sizes) < 2:
            return body
        return f"{body}-({','.join(str(p) for p in self.pair_sizes)})"


@dataclass(frozen=True)
class BasisDecomposition:
    """An ordered basis of a point set plus the supports of its dependents.

    ``dependents`` lists (point, support mask) in ascending point order;
    support bit i refers to ``basis[i]``.
    """

    points: PointSet
    basis: tuple[Point, ...]
    dependents: tuple[tuple[Point, int], ...]

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def basis_masks(self) -> tuple[int, ...]:
        return tuple(p.mask for p in self.basis)

    def support(self, i: int) -> int:
        if not 0 <= i < len(self.dependents):
            raise BadIndexError(f"dependent index {i} out of range")
        return self.dependents[i][1]

    def support_points(self, i: int) -> tuple[Point, ...]:
        mask = self.support(i)
        return tuple(b for pos, b in enumerate(self.basis) if mask >> pos & 1)

    def dependent_points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.dependents)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.dependents)


def decompose(source: Cap | PointSet, basis: Sequence[Point] | None = None) -> BasisDecomposition:
    """Split a set into an ordered basis and dependent supports.

    With no basis argument the deterministic greedy basis is used.  A
    supplied basis must be an affinely independent spanning subset of
    the set, in any order; its order is kept.
    """
    pts = source.points if isinstance(source, Cap) else source
    masks = pts.sorted_masks()
    if basis is None:
        chosen = extract_basis(pts)
    else:
        chosen = tuple(basis)
        if not chosen:
            raise InvalidBasisError("empty basis")
        if any(p.mask not in pts.masks or p.n != pts.n for p in chosen):
            raise InvalidBasisError("basis must be a subset of the decomposed set")
        if len({p.mask for p in chosen}) != len(chosen):
            raise InvalidBasisError("basis contains repeated points")
        if len(chosen) != _affine_rank(masks) + 1:
            raise InvalidBasisError("basis does not span the set")
    basis_masks = [p.mask for p in chosen]
    try:
        solver = _support_solver(basis_masks)
    except Exception as exc:
        raise InvalidBasisError("basis is affinely dependent") from exc
    in_basis = set(basis_masks)
    deps: list[tuple[Point, int]] = []
    for m in masks:
        if m in in_basis:
            continue
        support = _solve_support(solver, basis_masks[0], m)
        if support is None:
            raise InvalidBasisError("basis does not span the set")
        deps.append((Point(m, pts.n), support))
    return BasisDecomposition(pts, chosen, tuple(deps))


def support_intersection(dec: BasisDecomposition, indices: Iterable[int]) -> int:
    """Bitwise AND of the supports selected by 0-based dependent indices."""
    idx = list(indices)
    if not idx:
        raise BadIndexError("need at least one dependent index")
    acc = (1 << len(dec.basis)) - 1
    for i in idx:
        acc &= dec.support(i)
    return acc


def extended_type(dec: BasisDecomposition) -> ExtendedType:
    """Extended type of the decomposition's basis."""
    return ExtendedType.from_supports(dec.support_masks())


def exchange_basis(dec: BasisDecomposition, a: Point, x: Point) -> BasisDecomposition:
    """Swap basis point a with dependent x and recompute all supports.

    Requires a in the support of x and in the support of at most one
    other dependent (the partner).  The recomputed supports are checked
    against their closed forms: the new support of a is
    (B_x \\ {a}) | {x}, the partner's becomes (B_partner ^ B_x) | {x},
    and every other support is unchanged.
    """
    basis_masks = dec.basis_masks()
    try:
        apos = basis_masks.index(a.mask)
    except ValueError:
        raise ExchangeHypothesisViolated("a is not a basis point") from None
    abit = 1 << apos
    x_idx = None
    holders = []
    for i, (p, sup) in enumerate(dec.dependents):
        if p.mask == x.mask:
            x_idx = i
        if sup & abit:
            holders.append(i)
    if x_idx is None:
        raise ExchangeHypothesisViolated("x is not a dependent point")
    if x_idx not in holders:
        raise ExchangeHypothesisViolated("a is not in the support of x")
    others = [i for i in holders if i != x_idx]
    if len(others) > 1:
        raise ExchangeHypothesisViolated("a lies in the supports of two or more other dependents")
    partner_idx = others[0] if others else None

    new_basis = list(dec.basis)
    new_basis[apos] = x
    result = decompose(dec.points, new_basis)

    # runtime check of the exchange theorem's closed-form predictions
    old_support_pts = {p.mask: {b.mask for b in dec.support_points(i)} for i, (p, _) in enumerate(dec.dependents)}
    x_support_pts = old_support_pts[x.mask]
    predicted_a = (x_support_pts - {a.mask}) | {x.mask}
    for i, (p, _) in enumerate(result.dependents):
        new_pts = {b.mask for b in result.support_points(i)}
        if p.mask == a.mask:
            expected = predicted_a
        elif partner_idx is not None and p.mask == dec.dependents[partner_idx][0].mask:
            expected = (old_support_pts[p.mask] ^ x_support_pts) | {x.mask}
        else:
            expected = old_support_pts[p.mask]
        if new_pts != expected:
            raise InvariantError(f"exchange prediction failed for dependent {p.mask}")
    return result


_DESK_LIMIT = 13


def _iter_basis_supports(
    masks: tuple[int, ...], bc: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (subset indices, dependent supports) for every basis subset.

    Enumerates the affinely independent bc-subsets of ``masks`` in
    ascending index order, sharing partial eliminations along common
    prefixes.  Supports use bit i = subset position i; dependents come
    in ascending mask order (masks is expected sorted).
    """
    k = len(masks)
    if bc > k:
        return
    chosen: list[int] = []
    in_subset = [False] * k
    xb = XorBasis()

    def extend(start: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        depth = len(chosen)
        if depth == bc:
            t = masks[chosen[0]]
            sups = []
            for i in range(k):
                if in_subset[i]:
                    continue
                sup = _solve_support(xb, t, masks[i])
                # an independent (dim+1)-subset always spans the set
                if sup is None:
                    raise InvariantError(f"basis subset {chosen} does not span point {masks[i]}")
                sups.append(sup)
            yield tuple(chosen), tuple(sups)
            return
        for i in range(start, k - (bc - depth) + 1):
            if depth == 0:
                chosen.append(i)
                in_subset[i] = True
                yield from extend(i + 1)
                in_subset[i] = False
                chosen.pop()
            else:
                pivot = xb.insert_tracked(masks[i] ^ masks[chosen[0]], 1 << depth)
                if pivot is not None:
                    chosen.append(i)
                    in_subset[i] = True
                    yield from extend(i + 1)
                    in_subset[i] = False
                    chosen.pop()
                    xb.remove_pivot(pivot)

    yield from extend(0)


@lru_cache(maxsize=64)
def _basis_scan(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Materialized `_iter_basis_supports`, cached per point set."""
    return tuple(_iter_basis_supports(masks, bc))


def type_census(c: Cap) -> frozenset[ExtendedType]:
    """Extended types over every basis contained in the cap."""
    if c.size > _DESK_LIMIT:
        raise TooLargeError(f"type census is limited to {_DESK_LIMIT} points, got {c.size}")
    masks = c.sorted_masks()
    raw: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for _, sups in _basis_scan(masks, c.dim + 1):
        r = len(sups)
        sizes = tuple(s.bit_count() for s in sups)
        pairs = tuple(
            (sups[i] & sups[j]).bit_count() for i in range(r) for j in range(i + 1, r)
        )
        raw.add((sizes, pairs))
    return frozenset(ExtendedType(s, p) for s, p in {_canonical_type(s, p) for s, p in raw})
