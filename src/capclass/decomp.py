"""Basis/dependent decompositions, extended types, and basis exchange.

A set S with an ordered affine basis B splits into B and the dependent
set D = S \\ B.  Each dependent point is the XOR of a unique odd subset
of B, encoded here as a bitmask over basis positions (bit i = basis[i]).
The multiset of support sizes together with all pairwise intersection
sizes is the basis's extended type.

The bases inside a point set are read two ways.  The laws stated of
every basis read _every_basis, which takes each subset of the right size
and keeps it when one affine elimination over it finds it independent.
Canonical forms and the type census read one basis per class, from a
search over the dual matroid that serves this class scan only: each
point has a dual column, an r-bit value, and the complement of a basis
is a cobasis exactly when its r values are independent, so one
depth-first search over the values, inside _basis_scan, finds them.
Points with equal values are in series, and bases that leave out the
same set of values share their supports up to a permutation of rows and
columns: one class.  Canonical forms and the type census share one
cached list of label-free keys, one per class (_basis_scan), and build
supports only for the winning basis.  A named basis, the winning basis
and each basis of _every_basis get their supports from _supports: one
elimination over the basis and one solve per other point.  The exchange
claim builds its decompositions from those supports, so decompose runs
only on bases a caller names.  The key has 2^r entries, and r is at
most 5 under the 14-point limit of canonical forms; ROADMAP item 7 (r up
to 10) must revisit its encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .capset import Cap
from .errors import ExchangeHypothesisViolated, InvalidBasisError, InvariantError, TooLargeError
from .gf2 import (
    Point,
    PointSet,
    _affine_elimination,
    _affine_rank,
    _solve_support,
    _transpose,
    extract_basis,
)

# class key (see _basis_scan) -> ExtendedType; cleared whenever it reaches the limit
_TYPE_CACHE: dict[tuple[int, ...], ExtendedType] = {}
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
    pair_at = dict(zip(combinations(range(len(sizes)), 2), pairs))
    return min(
        (
            tuple(sizes[p] for p in perm),
            tuple(pair_at[(a, b) if a < b else (b, a)] for a, b in combinations(perm, 2)),
        )
        for perm in permutations(range(len(sizes)))
        if all(sizes[a] >= sizes[b] for a, b in zip(perm, perm[1:]))
    )


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

    def basis_masks(self) -> tuple[int, ...]:
        return tuple(p.mask for p in self.basis)

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
    in_basis = set(basis_masks)
    others = [m for m in masks if m not in in_basis]
    sups = _supports(basis_masks, others)
    if sups is None:
        raise InvalidBasisError("basis is affinely dependent")
    return BasisDecomposition(pts, chosen, tuple((Point(m, pts.n), sup) for m, sup in zip(others, sups)))


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
    # whole points are compared, so a mask from another dimension is no match
    try:
        apos = dec.basis.index(a)
    except ValueError:
        raise ExchangeHypothesisViolated("a is not a basis point") from None
    abit = 1 << apos
    old = dict(dec.dependents)
    if x not in old:
        raise ExchangeHypothesisViolated("x is not a dependent point")
    bx = old[x]
    if not bx & abit:
        raise ExchangeHypothesisViolated("a is not in the support of x")
    if sum(1 for sup in old.values() if sup & abit) > 2:
        raise ExchangeHypothesisViolated("a lies in the supports of two or more other dependents")

    new_basis = list(dec.basis)
    new_basis[apos] = x
    result = decompose(dec.points, new_basis)

    # runtime check of the exchange theorem's closed-form predictions
    for p, sup in result.dependents:
        if p == a:
            expected = bx
        elif old[p] & abit:
            expected = (old[p] ^ bx) | abit
        else:
            expected = old[p]
        if sup != expected:
            raise InvariantError(f"exchange prediction failed for dependent {p.mask}")
    return result


_DESK_LIMIT = 13


def _supports(basis: Sequence[int], others: Iterable[int]) -> tuple[int, ...] | None:
    """Supports of ``others`` over the ordered affine basis ``basis``, bit i
    for basis[i], from one elimination and one solve per point; None when
    the basis is affinely dependent, InvalidBasisError for a point outside
    its span.  A named basis (decompose), the winning basis of
    equivalence._least_basis and each basis of _every_basis all get their
    supports here."""
    solver, dependent = _affine_elimination(basis)
    if dependent:
        return None
    sups = tuple(_solve_support(solver, basis[0], m) for m in others)
    if None in sups:
        raise InvalidBasisError("basis does not span the set")
    return sups


def _has_bases(dim: int, bc: int) -> bool:
    """Whether a point set of affine dimension dim has bc-point bases: none
    when bc exceeds dim + 1, and InvariantError when bc falls short of it."""
    if bc < dim + 1:
        raise InvariantError(f"{bc} points cannot span a set of affine rank {dim}")
    return bc == dim + 1


def _every_basis(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, supports of the other points) for every bc-subset
    that one affine elimination over it (_supports) finds independent, in
    ascending lexicographic order, uncached: the reference for the laws
    stated of each basis, which reads bases by definition.  It shares no
    code with the value search behind _basis_scan, which the tests check
    against it.  Empty when bc exceeds the rank of the set; _has_bases
    raises when bc falls short of it."""
    if bc > len(masks) or not _has_bases(_affine_rank(masks), bc):
        return ()
    out = []
    for subset in combinations(range(len(masks)), bc):
        sups = _supports([masks[i] for i in subset], (m for i, m in enumerate(masks) if i not in subset))
        if sups is not None:
            out.append((subset, sups))
    return tuple(out)


def _key_supports(key: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Supports and column signatures of a basis of any class with this
    key, up to a permutation of columns.

    A class's key counts, for each w < 2^r, the points whose dual value
    is the w-th entry of its span table.  A basis point whose value sits
    at w is a column with signature w (the dependents that hold it), and
    the point left out t-th is counted at w = 2^t but is no column."""
    r = len(key).bit_length() - 1
    sigs = tuple(w for w, n in enumerate(key) for _ in range(n - (w > 0 and not w & (w - 1))))
    return _transpose(sigs, r), sigs


def _row_sorted_key(key: tuple[int, ...], sups: tuple[int, ...]) -> tuple[int, ...]:
    """The key of the same class with its rows re-read in the order of
    (support size, sorted intersection sizes with the other supports),
    ties kept in the key's own order; ``sups`` are _key_supports(key)'s.
    Row orders of one structure that sort alike meet one key.  Bit t of
    an index of the new key stands for row order[t]."""
    order = sorted(
        range(len(sups)),
        key=lambda t: (sups[t].bit_count(), sorted((sups[t] & s).bit_count() for u, s in enumerate(sups) if u != t)),
    )
    at = [0]
    for t in order:
        at += [w | 1 << t for w in at]
    return tuple(map(key.__getitem__, at))


@lru_cache(maxsize=1)
def _basis_scan(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(key, complement) per distinct class key of the bc-point bases of a
    point set, cached for the last point set only: canonical_form and
    type_census on one cap share it.

    A bc-subset is a basis exactly when its complement is a basis of the
    dual matroid, whose r rows are the dependents' supports over the
    greedy basis plus the dependent itself (over GF(2), [I | A] has dual
    [A^T | I]).  Point c's dual value is bit c of the rows, an r-bit value,
    and points of value 0 are in every basis.  Points with equal nonzero
    values are in series (parallel in the dual matroid; Oxley, *Matroid
    Theory*, 2.1), so a complement holds at most one of them, and the
    complements holding one set of values form a class whose bases share
    their supports up to a permutation of rows and columns.  A class is an
    independent r-set of the distinct values, its complement taken as the
    last index of each.  Its key, ``count[span[w]]`` for w < 2^r with
    ``count[v]`` the number of points of value v and ``span[w]`` the XOR
    of the values picked by the bits of w, fixes its supports up to a
    column permutation (_key_supports), so it fixes the least masks and
    the ExtendedType; the key is free of point labels and has 2^r entries.

    The value search runs depth-first on an explicit stack.  It adds one
    point at a time and keeps the span of the values chosen so far,
    doubled on each step; a point whose value lies in the span would make
    the complement dependent.  At a parent, one point short of r, the
    key's first half is read once, and each last point v that completes
    the set writes its key, the second half read from count[x ^ v].
    Children go on the stack in reverse, so complements come off in
    ascending order and the last write per key keeps the greatest of its
    classes, which is the greatest complement of any basis with that key:
    the key's first basis in _every_basis's order.  The tests check this
    scan against _every_basis."""
    k = len(masks)
    if bc > k:
        return ()
    # the points whose insert fails are the dependents of the greedy
    # basis; each row is a dependent's support over it plus the point itself
    xb, dependent = _affine_elimination(masks)
    rows = [_solve_support(xb, masks[0], masks[i]) | 1 << i for i in dependent]
    r = len(rows)
    if not _has_bases(k - 1 - r, bc):
        return ()
    values = _transpose(rows, k)
    count = [0] * (1 << r)
    for v in values:
        count[v] += 1
    if not r:
        return (((count[0],), ()),)
    # only the last index of each nonzero value may leave the basis
    candidates = sorted({v: c for c, v in enumerate(values) if v}.values())
    # count[x ^ v] by x, for each value v: the key's second half when v is last
    shifted = {v: [count[x ^ v] for x in range(1 << r)] for v in set(values)}
    keys = {}
    stack = [(0, (), [0])]
    while stack:
        start, chosen, span = stack.pop()
        stop = len(candidates) - r + len(chosen) + 1
        if len(chosen) < r - 1:
            for pos in reversed(range(start, stop)):
                v = values[candidates[pos]]
                if v not in span:
                    stack.append((pos + 1, chosen + (candidates[pos],), span + [x ^ v for x in span]))
        else:
            first = tuple(map(count.__getitem__, span))
            for c in candidates[start:stop]:
                v = values[c]
                if v not in span:
                    keys[first + tuple(map(shifted[v].__getitem__, span))] = chosen + (c,)
    return tuple(keys.items())


def _class_type(key: tuple[int, ...]) -> ExtendedType:
    """ExtendedType of the bases of a class, memoised on its key."""
    hit = _TYPE_CACHE.get(key)
    if hit is None:
        hit = ExtendedType.from_supports(_key_supports(key)[0])
        _cache_put(_TYPE_CACHE, key, hit, _TYPE_CACHE_LIMIT)
    return hit


def type_census(c: Cap) -> frozenset[ExtendedType]:
    """Extended types of the bases contained in the cap.

    One type per key of _basis_scan is read: the bases of a class
    share their supports up to a permutation of rows and columns, so they
    share one ExtendedType, and the set equals the set over every basis."""
    if c.size > _DESK_LIMIT:
        raise TooLargeError(f"type census is limited to {_DESK_LIMIT} points, got {c.size}")
    return frozenset([_class_type(key) for key, _ in _basis_scan(c.sorted_masks(), c.dim + 1)])
