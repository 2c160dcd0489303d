"""Canonical forms, equivalence tests, and explicit isomorphisms for caps.

The canonical form of a cap is the minimum, over every ordered affine
basis drawn from the cap itself, of the sorted list of dependent
support masks.  Affine isomorphisms carry cap-internal bases to
cap-internal bases and preserve supports, so equal forms characterise
affine equivalence (two caps whose dependents fit a common template
are equivalent, and the form is the minimal such template).

The minimisation runs in two levels: enumerate basis subsets, then
branch-and-bound over the assignment of basis points to positions,
pruning a partial assignment as soon as the masks it has already
finalised cannot beat the incumbent.  Per-subset minima depend only on
the multiset of raw supports and are memoised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capset import Cap
from .decomp import _basis_scan
from .errors import DimensionMismatchError, InvariantError, TooLargeError
from .gf2 import AffineMap, XorBasis, _columns_of, _transpose

_SIZE_LIMIT = 14

# Two memo levels keyed on the support multiset.  Affine images of one cap
# present the same structures under permuted column labels, so raw keys
# (exact masks) recur within a run while the normalized keys below collapse
# relabelings of the same structure; the branch-and-bound runs only once
# per normalized key.  Both are cleared whenever they reach _RAW_CACHE_LIMIT.
_RAW_FORM_CACHE: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_NORM_FORM_CACHE: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_RAW_CACHE_LIMIT = 400_000


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

    Columns carried by no support can always be pushed past every
    support column without increasing any mask, so they are assigned
    last; columns with identical support membership are interchangeable
    and only one per class is branched on.
    """
    r = len(sups)
    member = _transpose(sups, ncols)

    best_masks: tuple[int, ...] | None = None
    best_order: tuple[int, ...] | None = None

    def rec(
        order: tuple[int, ...],
        avail: int,
        partial: tuple[int, ...],
        remaining: tuple[int, ...],
    ) -> None:
        nonlocal best_masks, best_order
        pos = len(order)
        # each support finishes at or above its partial with its leftover
        # bits packed low; a finished support's bound is its mask, which is
        # below every unfinished one, so the sorted bounds bound every
        # completion and a branch that cannot beat the incumbent is cut
        lbs = [p | ((1 << rem) - 1) << pos for p, rem in zip(partial, remaining)]
        bound = tuple(sorted(lbs))
        if best_masks is not None and bound >= best_masks:
            return
        if not any(remaining):
            # past the cut, a finished order beats the incumbent
            best_masks, best_order = bound, order + tuple(_columns_of(avail))
            return
        seen: set[int] = set()
        scored = []
        m = avail
        while m:
            low = m & -m
            m ^= low
            c = low.bit_length() - 1
            sig = member[c]
            if sig == 0 or sig in seen:
                continue
            seen.add(sig)
            score = min((lbs[s], remaining[s]) for s in range(r) if sig >> s & 1)
            scored.append((score, c, sig))
        scored.sort()
        bit = 1 << pos
        for _, c, sig in scored:
            new_partial = list(partial)
            new_remaining = list(remaining)
            for s in range(r):
                if sig >> s & 1:
                    new_partial[s] |= bit
                    new_remaining[s] -= 1
            rec(order + (c,), avail ^ (1 << c), tuple(new_partial), tuple(new_remaining))

    rec((), (1 << ncols) - 1, (0,) * r, tuple(s.bit_count() for s in sups))
    if best_masks is None or best_order is None:
        raise InvariantError(f"no column order finalised the supports {sups}")
    return best_masks, best_order


def _normalize_columns(
    sups: tuple[int, ...], ncols: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Relabel columns by refined incidence colors, insensitively to input labels.

    Returns the relabeled support masks and ``old_of_new`` with
    old_of_new[k] = original index of the column now called k.  Colors
    are interned as ranks of their sorted key multisets, so they do not
    depend on the incoming labeling; any residual ties fall back to the
    original index.  Any deterministic relabeling is sound here because
    the minimum taken afterwards ranges over all column orders anyway.
    """
    r = len(sups)
    sizes = [s.bit_count() for s in sups]
    sup_cols: list[list[int]] = []
    col_members: list[list[int]] = [[] for _ in range(ncols)]
    for s, sup in enumerate(sups):
        cols = _columns_of(sup)
        for c in cols:
            col_members[c].append(s)
        sup_cols.append(cols)

    col_color = [len(col_members[c]) for c in range(ncols)]
    for _ in range(3):
        sup_keys = [
            (sizes[s], tuple(sorted(col_color[c] for c in sup_cols[s]))) for s in range(r)
        ]
        rank = {key: i for i, key in enumerate(sorted(set(sup_keys)))}
        sup_color = [rank[key] for key in sup_keys]
        col_keys = [tuple(sorted(sup_color[s] for s in col_members[c])) for c in range(ncols)]
        rank = {key: i for i, key in enumerate(sorted(set(col_keys)))}
        new_color = [rank[key] for key in col_keys]
        if new_color == col_color:
            break
        col_color = new_color

    old_of_new = tuple(sorted(range(ncols), key=lambda c: (col_color[c], c)))
    norm = []
    for s in sups:
        m = 0
        for new_idx, old in enumerate(old_of_new):
            if s >> old & 1:
                m |= 1 << new_idx
        norm.append(m)
    return tuple(norm), old_of_new


def _minimal_form_for_supports(
    sups: tuple[int, ...], ncols: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # one or two supports have closed-form minima: pack the smaller
    # support into the low positions, its intersection with the other
    # lowest of all
    if len(sups) == 1:
        cols = _columns_of(sups[0])
        rest = [c for c in range(ncols) if not sups[0] >> c & 1]
        return ((1 << len(cols)) - 1,), tuple(cols + rest)
    if len(sups) == 2:
        a, b = sups
        if (a.bit_count(), a) > (b.bit_count(), b):
            a, b = b, a
        shared = a & b
        order = (
            _columns_of(shared)
            + _columns_of(a & ~b)
            + _columns_of(b & ~a)
            + _columns_of(~(a | b) & ((1 << ncols) - 1))
        )
        sa, si = a.bit_count(), shared.bit_count()
        mask_a = (1 << sa) - 1
        mask_b = ((1 << si) - 1) | (((1 << (b.bit_count() - si)) - 1) << sa)
        return tuple(sorted((mask_a, mask_b))), tuple(order)

    raw_key = (ncols, tuple(sorted(sups)))
    hit = _RAW_FORM_CACHE.get(raw_key)
    if hit is not None:
        return hit
    norm, old_of_new = _normalize_columns(sups, ncols)
    norm_key = (ncols, tuple(sorted(norm)))
    entry = _NORM_FORM_CACHE.get(norm_key)
    if entry is None:
        entry = _min_column_form(norm, ncols)
        if len(_NORM_FORM_CACHE) >= _RAW_CACHE_LIMIT:
            _NORM_FORM_CACHE.clear()
        _NORM_FORM_CACHE[norm_key] = entry
    masks, order_n = entry
    result = (masks, tuple(old_of_new[k] for k in order_n))
    if len(_RAW_FORM_CACHE) >= _RAW_CACHE_LIMIT:
        _RAW_FORM_CACHE.clear()
    _RAW_FORM_CACHE[raw_key] = result
    return result


def _canonical_scan(c: Cap) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus the ordered basis masks realising it."""
    if c.size > _SIZE_LIMIT:
        raise TooLargeError(f"canonical form is limited to {_SIZE_LIMIT} points, got {c.size}")
    masks = c.sorted_masks()
    bc = c.dim + 1
    if c.size == bc:
        return CanonicalForm(c.dim, c.size, ()), masks
    best_form: tuple[int, ...] | None = None
    best_basis: tuple[int, ...] | None = None
    for subset, sups in _basis_scan(masks, bc):
        form, order = _minimal_form_for_supports(sups, bc)
        if best_form is None or form < best_form:
            best_form = form
            best_basis = tuple(masks[subset[col]] for col in order)
    if best_form is None or best_basis is None:
        raise InvariantError(f"a {c.size}-point cap of dimension {c.dim} has no internal basis")
    return CanonicalForm(c.dim, c.size, best_form), best_basis


def canonical_form(c: Cap) -> CanonicalForm:
    """Canonical form of a cap of at most ``_SIZE_LIMIT`` points."""
    return _canonical_scan(c)[0]


def are_equivalent(c1: Cap, c2: Cap) -> bool:
    """True iff some invertible affine map carries c1 onto c2."""
    if c1.size != c2.size or c1.dim != c2.dim:
        return False
    return canonical_form(c1) == canonical_form(c2)


def _map_from_bases(basis1: tuple[int, ...], basis2: tuple[int, ...], n: int) -> AffineMap:
    """Invertible map sending basis1[i] to basis2[i], extended linearly."""
    t1, t2 = basis1[0], basis2[0]
    src = [m ^ t1 for m in basis1[1:]]
    dst = [m ^ t2 for m in basis2[1:]]
    # complete both difference sets to bases of the full space in lockstep
    xb_src = XorBasis()
    for v in src:
        xb_src.insert(v)
    xb_dst = XorBasis()
    for v in dst:
        xb_dst.insert(v)
    for j in range(n):
        if xb_src.insert(1 << j):
            for cand in range(n):
                if xb_dst.insert(1 << cand):
                    src.append(1 << j)
                    dst.append(1 << cand)
                    break
    # the linear part sends column i of S = src to column i of D = dst: L = D S^-1
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
    form1, basis1 = _canonical_scan(c1)
    form2, basis2 = _canonical_scan(c2)
    if form1 != form2:
        return None
    t = _map_from_bases(basis1, basis2, c1.n)
    if not verify_map(t, c1, c2):
        raise InvariantError("canonical bases disagree with their common form")
    return t


def verify_map(t: AffineMap, c1: Cap, c2: Cap) -> bool:
    """True iff t is invertible and maps c1's points exactly onto c2's."""
    if t.n != c1.n or t.n != c2.n:
        return False
    if not t.is_invertible:
        return False
    image = {t.apply_mask(m) for m in c1.sorted_masks()}
    return image == set(c2.sorted_masks())
