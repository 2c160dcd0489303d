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
from typing import Iterable, Sequence

from .capset import Cap
from .errors import (
    BadIndexError,
    DependentBasisError,
    ExchangeHypothesisViolated,
    InvalidBasisError,
    InvariantError,
    TooLargeError,
)
from .gf2 import (
    Point,
    PointSet,
    _affine_rank,
    _columns_of,
    _greedy_basis_masks,
    _solve_support,
    _support_solver,
    extract_basis,
)

# raw (sizes, pairs) -> canonical order; cleared whenever it reaches the limit
_TYPE_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_TYPE_CACHE_LIMIT = 100_000


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
    if len(_TYPE_CACHE) >= _TYPE_CACHE_LIMIT:
        _TYPE_CACHE.clear()
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
    except DependentBasisError as exc:
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
    basis: list[int],
    out: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> None:
    """Append every basis whose complement extends the chosen one by indices >= start.

    ``rows`` are the r dual rows after ``depth`` complement points have
    been chosen, pivoted on and deleted: rows[t] for t < depth belongs to
    the t-th chosen point, ``basis`` lists the k-point set's indices below
    ``start`` outside the complement (bit i = basis[i]), and index c >=
    start sits at bit c - depth.  Once all r points are chosen, rows[t]
    is the support of the t-th one over the basis positions.
    """
    r = len(rows)
    last = depth == r - 1
    mark = len(basis)
    for c in range(start, k - r + depth + 1):
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
            _scan_from(reduced, depth + 1, c + 1, k, basis, out)
        basis.append(c)
    del basis[mark:]


@lru_cache(maxsize=64)
def _basis_scan(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, dependent supports) for every basis subset, cached per point set.

    A bc-subset is a basis exactly when its complement is a basis of the
    dual matroid, whose rows are the dependents' supports over the greedy
    basis plus the dependent itself (over GF(2), [I | A] has dual
    [A^T | I]).  The scan chooses complements in ascending index order and
    Gauss-Jordan-eliminates the r dual rows on each chosen column; at a
    complete complement the rows are the supports over the remaining
    points.  Results come in ascending index order of the subsets, with
    bit i = subset position i and dependents in ascending mask order
    (masks is expected sorted).
    """
    k = len(masks)
    if bc > k:
        return ()
    greedy = _greedy_basis_masks(masks)
    if len(greedy) < bc:
        return ()
    if len(greedy) > bc:
        raise InvariantError(f"{bc} points cannot span a set of affine rank {len(greedy) - 1}")
    index = {m: i for i, m in enumerate(masks)}
    solver = _support_solver(greedy)
    rows = []
    for i, m in enumerate(masks):
        if m in greedy:
            continue
        row = 1 << i
        for pos in _columns_of(_solve_support(solver, greedy[0], m)):
            row |= 1 << index[greedy[pos]]
        rows.append(row)
    if not rows:
        return ((tuple(range(k)), ()),)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    _scan_from(rows, 0, 0, k, [], out)
    # complements in ascending order are bases in descending order
    out.reverse()
    return tuple(out)


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
    # ExtendedType canonicalises each raw type; the frozenset merges equal ones
    return frozenset(ExtendedType(s, p) for s, p in raw)
