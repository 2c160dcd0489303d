"""Basis/dependent decompositions, extended types, and basis exchange.

A set S with an ordered affine basis B splits into B and the dependent
set D = S \\ B.  Each dependent point is the XOR of a unique odd subset
of B, encoded here as a bitmask over basis positions (bit i = basis[i]).
The multiset of support sizes together with all pairwise intersection
sizes is the basis's extended type.

The bases inside a point set are enumerated through their complements,
which are the bases of the dual matroid.  Points with equal dual
columns are in series, and bases that leave out the same set of
dual-column values share their supports up to a permutation of rows
and columns.  So the cached scan that canonical forms and the type
census read keeps one basis per such class; the laws stated of every
basis read the full enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

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
    _affine_elimination,
    _solve_support,
    _transpose,
    extract_basis,
)

# raw (sizes, pairs) -> canonical order; cleared whenever it reaches the limit
_TYPE_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_TYPE_CACHE_LIMIT = 100_000


def _cache_put(cache: dict, key: object, value: object, limit: int) -> None:
    """Insert into a memo that is cleared whenever it reaches its limit."""
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value


def _raw_type(sups: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(support sizes, pairwise intersection sizes) of one basis, pairs in combinations order."""
    return tuple(s.bit_count() for s in sups), tuple((a & b).bit_count() for a, b in combinations(sups, 2))


def _canonical_type(sizes: tuple[int, ...], pairs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reorder dependents: sizes non-increasing, then pair sizes lex-minimal."""
    key = (sizes, pairs)
    hit = _TYPE_CACHE.get(key)
    if hit is not None:
        return hit
    pair_at = dict(zip(combinations(range(len(sizes)), 2), pairs))
    best = min(
        (
            tuple(sizes[p] for p in perm),
            tuple(pair_at[(a, b) if a < b else (b, a)] for a, b in combinations(perm, 2)),
        )
        for perm in permutations(range(len(sizes)))
        if all(sizes[a] >= sizes[b] for a, b in zip(perm, perm[1:]))
    )
    _cache_put(_TYPE_CACHE, key, best, _TYPE_CACHE_LIMIT)
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
        sizes, pairs = tuple(self.sizes), tuple(self.pair_sizes)
        r = len(sizes)
        if len(pairs) != r * (r - 1) // 2:
            raise ValueError(f"expected {r * (r - 1) // 2} pair sizes for {r} dependents")
        if any(s < 1 for s in sizes) or any(p < 0 for p in pairs):
            raise ValueError("support sizes must be at least 1 and pair sizes at least 0")
        # the bound holds in every dependent order, so it is checked before canonicalising
        if any(p > min(sizes[i], sizes[j]) for (i, j), p in zip(combinations(range(r), 2), pairs)):
            raise ValueError("pair intersection exceeds a member size")
        sizes, pairs = _canonical_type(sizes, pairs)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "pair_sizes", pairs)

    @classmethod
    def from_supports(cls, supports: Sequence[int]) -> ExtendedType:
        return cls(*_raw_type(supports))

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
    basis_masks = [p.mask for p in chosen]
    solver, dependent = _affine_elimination(basis_masks)
    if dependent:
        raise InvalidBasisError("basis is affinely dependent")
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
    and every other support is unchanged.  As position masks, with x
    taking a's position, a gets B_x, the partner (B_partner ^ B_x) | bit(a),
    and every other dependent keeps its mask.
    """
    basis_masks = dec.basis_masks()
    try:
        apos = basis_masks.index(a.mask)
    except ValueError:
        raise ExchangeHypothesisViolated("a is not a basis point") from None
    abit = 1 << apos
    old = {p.mask: sup for p, sup in dec.dependents}
    if x.mask not in old:
        raise ExchangeHypothesisViolated("x is not a dependent point")
    bx = old[x.mask]
    if not bx & abit:
        raise ExchangeHypothesisViolated("a is not in the support of x")
    if sum(1 for sup in old.values() if sup & abit) > 2:
        raise ExchangeHypothesisViolated("a lies in the supports of two or more other dependents")

    new_basis = list(dec.basis)
    new_basis[apos] = x
    result = decompose(dec.points, new_basis)

    # runtime check of the exchange theorem's closed-form predictions
    for p, sup in result.dependents:
        if p.mask == a.mask:
            expected = bx
        elif old[p.mask] & abit:
            expected = (old[p.mask] ^ bx) | abit
        else:
            expected = old[p.mask]
        if sup != expected:
            raise InvariantError(f"exchange prediction failed for dependent {p.mask}")
    return result


_DESK_LIMIT = 13


def _scan_from(
    rows: list[int],
    depth: int,
    start: int,
    k: int,
    allowed: int,
    basis: list[int],
    out: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> None:
    """Append every basis whose complement extends the chosen one by indices >= start.

    ``rows`` are the r dual rows after ``depth`` complement points have
    been chosen, pivoted on and deleted: rows[t] for t < depth belongs to
    the t-th chosen point, ``basis`` lists the k-point set's indices below
    ``start`` outside the complement (bit i = basis[i]), and index c >=
    start sits at bit c - depth.  Only indices set in ``allowed`` join the
    complement.  Once all r points are chosen, rows[t] is the support of
    the t-th one over the basis positions.
    """
    r = len(rows)
    last = depth == r - 1
    mark = len(basis)
    for c in range(start, k - r + depth + 1):
        if not allowed >> c & 1:
            basis.append(c)
            continue
        bit = 1 << (c - depth)
        for piv in range(depth, r):
            if rows[piv] & bit:
                break
        else:
            # column c depends on the complement chosen so far
            basis.append(c)
            continue
        # eliminate column c from the other rows, then delete it; deletion
        # is linear, so a row holding c can add the pivot row already
        # deleted.  The pivot row cancels itself and is put back at depth.
        low, high = bit - 1, -bit
        pr = rows[piv] & low | rows[piv] >> 1 & high
        reduced = [(x & low | x >> 1 & high) ^ (pr if x & bit else 0) for x in rows]
        reduced[piv] = reduced[depth]
        reduced[depth] = pr
        if last:
            out.append((tuple(basis) + tuple(range(c + 1, k)), tuple(reduced)))
        else:
            _scan_from(reduced, depth + 1, c + 1, k, allowed, basis, out)
        basis.append(c)
    del basis[mark:]


def _scan(masks: tuple[int, ...], bc: int, one_per_class: bool) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, dependent supports) for the basis subsets, in
    ascending index order of the subsets.

    A bc-subset is a basis exactly when its complement is a basis of the
    dual matroid, whose rows are the dependents' supports over the greedy
    basis plus the dependent itself (over GF(2), [I | A] has dual
    [A^T | I]).  The r dual rows come from one elimination against the
    first point, marked by point index.  The scan chooses complements in
    ascending index order and Gauss-Jordan-eliminates the rows on each
    chosen column; at a complete complement the rows are the supports
    over the remaining points, with bit i = subset position i and
    dependents in ascending mask order (masks is expected sorted).  With
    ``one_per_class`` only the last index of each nonzero dual column may
    leave the basis (see _basis_scan).
    """
    k = len(masks)
    if bc > k:
        return ()
    # the points whose insert fails are the dependents of the greedy
    # basis; each row is a dependent's support over it plus the point itself
    xb, dependent = _affine_elimination(masks)
    rows = [_solve_support(xb, masks[0], masks[i]) | 1 << i for i in dependent]
    rank = k - len(rows)
    if rank < bc:
        return ()
    if rank > bc:
        raise InvariantError(f"{bc} points cannot span a set of affine rank {rank - 1}")
    if not rows:
        return ((tuple(range(k)), ()),)
    allowed = -1
    if one_per_class:
        last = {value: c for c, value in enumerate(_transpose(rows, k)) if value}
        allowed = sum(1 << c for c in last.values())
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    _scan_from(rows, 0, 0, k, allowed, [], out)
    # complements in ascending order are bases in descending order
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=1)
def _basis_scan(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, dependent supports) for one basis per dual-column
    class, cached for the last point set only: the reuse that occurs is a
    census reading the scan its cap's canonical form made just before.

    Point c's dual column is bit c of the r dual rows.  Points with equal
    nonzero dual columns are in series (parallel in the dual matroid;
    Oxley, *Matroid Theory*, 2.1), so a complement holds at most one of
    them.  Two complements holding the same set of dual-column values
    have the same r x r column block up to a column permutation, so
    eliminating on either leaves supports that differ only by a
    permutation of rows and of columns: the same least masks and the same
    ExtendedType.  Such complements form one class.  The scan lets only
    the last index of each value leave the basis.  That complement is the
    lexicographically greatest of its class, and complements come out in
    descending order, so each kept basis is the first of its class in
    _every_basis's order, and the result is the subsequence of
    _every_basis made of those bases, with the same (subset, supports).
    A caller that keeps the first basis reaching a minimum over classes
    therefore keeps the same basis as over every basis.
    """
    return _scan(masks, bc, True)


def _every_basis(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, dependent supports) for every basis subset,
    uncached: for the checks that state a law of each basis."""
    return _scan(masks, bc, False)


def type_census(c: Cap) -> frozenset[ExtendedType]:
    """Extended types of the bases contained in the cap.

    One basis per dual-column class is read (_basis_scan): the bases of a
    class share their supports up to a permutation of rows and columns,
    so they share one ExtendedType, and the set equals the set over every
    basis."""
    if c.size > _DESK_LIMIT:
        raise TooLargeError(f"type census is limited to {_DESK_LIMIT} points, got {c.size}")
    raw = {_raw_type(sups) for _, sups in _basis_scan(c.sorted_masks(), c.dim + 1)}
    # ExtendedType canonicalises each raw type; the frozenset merges equal ones
    return frozenset(ExtendedType(s, p) for s, p in raw)
