"""Basis/dependent decompositions, extended types, and basis exchange.

A set S with an ordered affine basis B splits into B and the dependent
set D = S \\ B.  Each dependent point is the XOR of a unique odd subset
of B, encoded here as a bitmask over basis positions (bit i = basis[i]).
The multiset of support sizes together with all pairwise intersection
sizes is the basis's extended type.

The bases inside a point set are enumerated through their complements,
which are the bases of the dual matroid.  Each point has a dual column,
an r-bit value, and a complement is a cobasis exactly when its r values
are independent, so one depth-first search over the values
(_independent_sets) serves every reader.  Points with equal values are
in series, and bases that leave out the same set of values share their
supports up to a permutation of rows and columns: one class.  Canonical
forms and the type census share one cached list of label-free keys,
one per class (_basis_scan), and build supports only for the winning
basis; the laws stated of every basis read the full enumeration
(_every_basis).  Every basis, the winning one included, gets its
supports from _basis_of: one elimination over the basis and one solve
per left-out point.  The exchange claim builds its decompositions from
those supports, so decompose runs only on bases a caller names.  The
key has 2^r entries, and r is at most 5 under the 14-point limit of
canonical forms; ROADMAP item 7 (r up to 10) must revisit its encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .capset import Cap
from .errors import ExchangeHypothesisViolated, InvalidBasisError, InvariantError, TooLargeError
from .gf2 import (
    Point,
    PointSet,
    _affine_elimination,
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


def _complements(
    masks: tuple[int, ...], bc: int, one_per_class: bool
) -> tuple[tuple[int, ...], list[tuple[list[int], tuple[int, ...]]]]:
    """(dual value of each point, _independent_sets over them): the
    complement of every bc-point basis with its span, none when there is
    none.

    A bc-subset is a basis exactly when its complement is a basis of the
    dual matroid, whose r rows are the dependents' supports over the
    greedy basis plus the dependent itself (over GF(2), [I | A] has dual
    [A^T | I]).  The rows come from one elimination against the first
    point, marked by point index; point c's dual value is bit c of the
    rows, an r-bit value, and points of value 0 are in every basis.  With
    ``one_per_class`` only the last index of each value may leave the
    basis (see _basis_scan).
    """
    k = len(masks)
    if bc > k:
        return (), []
    # the points whose insert fails are the dependents of the greedy
    # basis; each row is a dependent's support over it plus the point itself
    xb, dependent = _affine_elimination(masks)
    rows = [_solve_support(xb, masks[0], masks[i]) | 1 << i for i in dependent]
    rank = k - len(rows)
    if rank < bc:
        return (), []
    if rank > bc:
        raise InvariantError(f"{bc} points cannot span a set of affine rank {rank - 1}")
    values = _transpose(rows, k)
    candidates = [c for c, v in enumerate(values) if v]
    if one_per_class:
        candidates = sorted({values[c]: c for c in candidates}.values())
    return values, _independent_sets(values, candidates, len(rows))


def _independent_sets(
    values: tuple[int, ...], candidates: Sequence[int], r: int
) -> list[tuple[list[int], tuple[int, ...]]]:
    """(span, subset) for every r-subset of ``candidates`` (point indices,
    ascending) whose dual values are independent, in ascending
    lexicographic order of the subsets.  These subsets are the
    complements of the bases.  ``span[w]`` is the XOR of the values of
    all but the subset's last point picked by the bits of w, one list
    shared by the subsets that differ only in their last point; the
    readers double it by the last value.  For r = 0 the one subset is
    empty and its span [0].

    The search adds one point at a time and keeps the span of the values
    chosen so far, doubled on each step; a point whose value lies in the
    span would make the complement dependent."""
    if not r:
        return [([0], ())]
    out: list[tuple[list[int], tuple[int, ...]]] = []

    def extend(start: int, chosen: tuple[int, ...], span: list[int]) -> None:
        stop = len(candidates) - r + len(chosen) + 1
        last = len(chosen) == r - 1
        for pos in range(start, stop):
            c = candidates[pos]
            v = values[c]
            if v not in span:
                if last:
                    out.append((span, chosen + (c,)))
                else:
                    extend(pos + 1, chosen + (c,), span + [x ^ v for x in span])

    extend(0, (), [0])
    return out


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

    Points with equal nonzero dual values are in series (parallel in the
    dual matroid; Oxley, *Matroid Theory*, 2.1), so a complement holds at
    most one of them, and the complements holding one set of values form
    a class whose bases share their supports up to a permutation of rows
    and columns.  A class is an independent r-set of the distinct values,
    its complement taken as the last index of each.  Its key,
    ``count[span[w]]`` for w < 2^r with ``count[v]`` the number of points
    of value v, fixes its supports up to a column permutation
    (_key_supports), so it fixes the least masks and the ExtendedType;
    the key is free of point labels and has 2^r entries.  Complements
    come in ascending order, so each key keeps the greatest of its
    classes, which is the greatest complement of any basis with that key:
    the key's first basis in _every_basis's order."""
    values, leaves = _complements(masks, bc, True)
    if not leaves:
        return ()
    r = len(leaves[0][1])
    count = [0] * (1 << r)
    for v in values:
        count[v] += 1
    if not r:
        return (((count[0],), ()),)
    # count[x ^ v] by x, for each value v: the key's second half when v is last
    shifted = {v: [count[x ^ v] for x in range(1 << r)] for v in set(values)}
    keys = {}
    parent = None
    for span, complement in leaves:
        if span is not parent:
            parent, first = span, tuple(map(count.__getitem__, span))
        keys[first + tuple(map(shifted[values[complement[-1]]].__getitem__, span))] = complement
    return tuple(keys.items())


def _basis_of(masks: tuple[int, ...], complement: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(subset indices, dependent supports) of the basis that leaves out
    ``complement``: the supports of the left-out points over the rest,
    from one elimination, as decompose finds them."""
    subset = tuple(i for i in range(len(masks)) if i not in complement)
    basis = [masks[i] for i in subset]
    solver = _affine_elimination(basis)[0]
    return subset, tuple(_solve_support(solver, basis[0], masks[c]) for c in complement)


def _every_basis(masks: tuple[int, ...], bc: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(subset indices, dependent supports) for every basis subset, in
    ascending index order, uncached: for the checks that state a law of
    each basis.  Each basis gets its supports from _basis_of, one
    elimination over the basis and one solve per left-out point;
    complements in ascending order are bases in descending order."""
    return tuple(_basis_of(masks, complement) for _, complement in reversed(_complements(masks, bc, False)[1]))


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
