"""Canonical forms, equivalence tests, and explicit isomorphisms for caps.

The canonical form of a cap is the minimum, over every ordered affine
basis drawn from the cap itself, of the sorted list of dependent
support masks.  Affine isomorphisms carry cap-internal bases to
cap-internal bases and preserve supports, so equal forms characterise
affine equivalence (two caps whose dependents fit a common template
are equivalent, and the form is the minimal such template).

The minimisation runs over classes of bases, not over bases:
decomp._basis_scan searches the cap's dual-column values and gives
each class of bases whose supports agree up to a permutation of rows and
columns one key, free of point and column labels, that fixes those
supports up to a column permutation.  The least masks of a class are
memoised once, on its key; a miss builds the supports the key fixes and
finds their least sorted masks over all column orders by refining an
ordered partition of the columns one support at a time, in the manner
of canonical labelling (McKay & Piperno 2014), over the r supports
rather than over the columns.  The key keeps the rows in the order of
the class's complement, so row permutations of one structure are
separate keys; a key free of row labels too would be the least masks
themselves.  As canonical labelling separates comparing certificates
from building the labelling, only the winning class is materialised:
the first basis in decomp._every_basis's order to reach the form, which
is the class reaching it with the lexicographically greatest
complement.  The refinement then runs once more on its supports and
returns the lexicographically least optimal order in the basis's own
column labels, and a basis with two supports takes a closed form
instead.  The key has 2^r entries, and r is at most 5 under
_SIZE_LIMIT; ROADMAP item 7 (r up to 10) must revisit its encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capset import Cap
from .decomp import _basis_of, _basis_scan, _cache_put, _key_supports
from .errors import DimensionMismatchError, InvariantError, TooLargeError
from .gf2 import AffineMap, XorBasis, _columns_of, _transpose

_SIZE_LIMIT = 14

# Least masks per class key (decomp._basis_scan), cleared whenever it
# reaches _RAW_CACHE_LIMIT.  The key is free of point and column labels,
# so every affine image of one cap meets the same keys.
_NORM_FORM_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_RAW_CACHE_LIMIT = 400_000
# never filled: bound only because perfbench/tracing.py reads it by name, until ROADMAP item 2 lands
_RAW_FORM_CACHE: dict = {}

# a cap's least per-basis masks, with the subset and supports of the first basis reaching them
_Least = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Complete affine-equivalence invariant of a cap.

    ``n`` is the cap's affine dimension (not the ambient dimension, so
    forms compare across embeddings), ``dep_masks`` the lexicographically
    minimal sorted support-mask list over all ordered internal bases.
    """

    n: int
    size: int
    dep_masks: tuple[int, ...]


def _min_column_form(
    sups: tuple[int, ...], ncols: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal sorted support-mask tuple over all column orders, with the order.

    The minimum is found by choosing rows, not columns.  An ordered
    partition of the support columns into cells fixes which block of
    positions each cell fills, and a row's packed value (its columns
    lowest in every cell) is the least mask it can take.  The smallest
    packed value m among the unchosen rows is the next entry of the
    minimum: every row worth m is tried, and choosing it splits each
    cell into the columns that hold it, then the rest.  A row reaches m
    only with its columns lowest in every cell, so every optimal order
    agrees with one of these branches, and after all rows each cell is
    one signature class (the set of supports that hold a column).

    Every optimal order lists the classes in the cell order of some
    branch, each class's columns in any order, with the columns carried
    by no support last.  The tie rule returns the lexicographically least
    of them in the basis's own column labels: over the final branches,
    the least list of each cell's columns in ascending order, then the
    uncarried columns ascending.
    """
    member = _transpose(sups, ncols)
    cols_of: dict[int, int] = {}
    held = 0
    for c, sig in enumerate(member):
        if sig:
            cols_of[sig] = cols_of.get(sig, 0) | 1 << c
            held |= 1 << c

    # every ordered partition that an optimal prefix of rows reaches, level by level
    masks: list[int] = []
    states = {(0, (held,) if held else ()): None}
    for _ in sups:
        best = -1
        branches: list[tuple[int, tuple[int, ...], int]] = []
        for chosen, cells in states:
            for s, sup in enumerate(sups):
                if chosen >> s & 1:
                    continue
                value = start = 0
                for cell in cells:
                    value |= ((1 << (cell & sup).bit_count()) - 1) << start
                    start += cell.bit_count()
                if value < best or best < 0:
                    best, branches = value, []
                if value == best:
                    branches.append((chosen | 1 << s, cells, sup))
        masks.append(best)
        states = {}
        for chosen, cells, sup in branches:
            split = [part for cell in cells for part in (cell & sup, cell & ~sup) if part]
            states[chosen, tuple(split)] = None
    if not states:
        raise InvariantError(f"no row order finalised the supports {sups}")
    for _, cells in states:
        for cell in cells:
            if cols_of[member[(cell & -cell).bit_length() - 1]] != cell:
                raise InvariantError(f"a final cell of the supports {sups} holds two signatures")
    order = min([c for cell in cells for c in _columns_of(cell)] for _, cells in states)
    return tuple(masks), tuple(order + _columns_of(((1 << ncols) - 1) & ~held))


def _column_order(sups: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """A column order under which one basis's supports pack to its least
    masks; uncached, it runs once per ordered basis.  Ties go to the
    lexicographically least order, except for two supports, whose closed
    form lists the intersection, then each support's own columns, then the
    rest; _ordered_basis checks it against the kernel's masks."""
    if len(sups) == 2:
        a, b = sorted(sups, key=lambda sup: (sup.bit_count(), sup))
        rest = ~(a | b) & ((1 << ncols) - 1)
        return tuple(_columns_of(a & b) + _columns_of(a & ~b) + _columns_of(b & ~a) + _columns_of(rest))
    return _min_column_form(sups, ncols)[1]


def _class_masks(key: tuple[int, ...]) -> tuple[int, ...]:
    """Least sorted support masks of the bases of one class, memoised on
    its key: the refinement runs once per key, on the supports the key
    fixes (decomp._key_supports)."""
    masks = _NORM_FORM_CACHE.get(key)
    if masks is None:
        masks = _min_column_form(*_key_supports(key))[0]
        _cache_put(_NORM_FORM_CACHE, key, masks, _RAW_CACHE_LIMIT)
    return masks


def _least_basis(c: Cap) -> _Least:
    """Least per-basis masks of c, with the subset and supports of the
    first basis in decomp._every_basis order that reaches them: among the
    classes reaching them, the one whose complement is lexicographically
    greatest."""
    if c.size > _SIZE_LIMIT:
        raise TooLargeError(f"canonical form is limited to {_SIZE_LIMIT} points, got {c.size}")
    points, bc = c.sorted_masks(), c.dim + 1
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for key, complement in _basis_scan(points, bc):
        masks = _class_masks(key)
        if best is None or masks < best[0] or masks == best[0] and complement > best[1]:
            best = (masks, complement)
    if best is None:
        raise InvariantError(f"a {c.size}-point cap of dimension {c.dim} has no internal basis")
    return (best[0], *_basis_of(points, best[1]))


def _ordered_basis(c: Cap, least: _Least) -> tuple[int, ...]:
    """The points of the winning basis of _least_basis in the column order
    that realises the form."""
    form, subset, sups = least
    order = _column_order(sups, c.dim + 1)
    packed = tuple(sorted(sum(1 << i for i, col in enumerate(order) if sup >> col & 1) for sup in sups))
    if packed != form:
        raise InvariantError(f"the winning basis orders to {packed}, not to the form {form}")
    points = c.sorted_masks()
    return tuple(points[subset[col]] for col in order)


def canonical_form(c: Cap) -> CanonicalForm:
    """Canonical form of a cap of at most ``_SIZE_LIMIT`` points."""
    return CanonicalForm(c.dim, c.size, _least_basis(c)[0])


def are_equivalent(c1: Cap, c2: Cap) -> bool:
    """True iff some invertible affine map carries c1 onto c2, for caps of
    one ambient dimension.  Caps of different ambient dimensions are
    compared by canonical form alone, which forgets the ambient space: the
    answer is True when their affine spans hold equivalent caps, though no
    map between the two spaces exists."""
    if c1.size != c2.size or c1.dim != c2.dim:
        return False
    return canonical_form(c1) == canonical_form(c2)


def _map_from_bases(basis1: tuple[int, ...], basis2: tuple[int, ...], n: int) -> AffineMap:
    """Invertible map sending basis1[i] to basis2[i], extended linearly."""
    t1, t2 = basis1[0], basis2[0]
    src = [m ^ t1 for m in basis1[1:]]
    dst = [m ^ t2 for m in basis2[1:]]
    # extend each by the unit vectors that raise its rank, in index order;
    # the i-th completions pair up
    for vectors in (src, dst):
        xb = XorBasis()
        for v in vectors:
            xb.insert(v)
        vectors.extend(1 << j for j in range(n) if xb.insert(1 << j))
    # the linear part sends column i of S = src to column i of D = dst: L = D S^-1;
    # a dependent source leaves S singular or with more than n columns
    try:
        s_map = AffineMap(n, _transpose(src, n), 0)
        linear = AffineMap(n, _transpose(dst, n), 0).compose(s_map.inverse())
    except ValueError as exc:
        raise InvariantError("completed source basis is singular") from exc
    return AffineMap(n, linear.rows, t2 ^ linear.apply_mask(t1))


def find_isomorphism(c1: Cap, c2: Cap) -> AffineMap | None:
    """An invertible affine map with T(c1) = c2, or None if none exists.

    Both caps must live in the same ambient dimension; the map carries
    the ordered basis minimising c1's form onto the one minimising c2's.
    """
    if c1.n != c2.n:
        raise DimensionMismatchError("caps live in different ambient dimensions")
    if c1.size != c2.size or c1.dim != c2.dim:
        return None
    # forms are compared before either winning basis is ordered
    least1, least2 = _least_basis(c1), _least_basis(c2)
    if least1[0] != least2[0]:
        return None
    t = _map_from_bases(_ordered_basis(c1, least1), _ordered_basis(c2, least2), c1.n)
    if not verify_map(t, c1, c2):
        raise InvariantError("canonical bases disagree with their common form")
    return t


def verify_map(t: AffineMap, c1: Cap, c2: Cap) -> bool:
    """True iff t is invertible and maps c1's points exactly onto c2's."""
    if t.n != c1.n or t.n != c2.n:
        return False
    if not t.is_invertible:
        return False
    return {t.apply_mask(m) for m in c1.sorted_masks()} == c2.points.masks
