"""Slow, independent re-implementations used as test oracles only."""

from __future__ import annotations

from itertools import combinations

from capclass.errors import InvariantError
from capclass.decomp import decompose
from capclass.gf2 import AffineMap, Point, XorBasis


def odd_sum_closure(masks: set[int]) -> set[int]:
    """Affine span by saturation: keep adding XORs of three elements."""
    closure = set(masks)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(closure)
        for a, b, c in combinations(snapshot, 3):
            v = a ^ b ^ c
            if v not in closure:
                closure.add(v)
                changed = True
    return closure


def rank_oracle(masks: list[int]) -> int:
    """Affine rank via textbook row reduction on the translated set."""
    t = masks[0]
    rows = [m ^ t for m in masks[1:]]
    rank = 0
    for bit in range(max(rows, default=0).bit_length() + 1):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def odd_subset_coordinates(basis_masks: list[int], x: int) -> list[int]:
    """All odd subsets of the basis XORing to x, as position masks."""
    hits = []
    m = len(basis_masks)
    for selector in range(1, 1 << m):
        if selector.bit_count() % 2 == 0:
            continue
        acc = 0
        for i in range(m):
            if selector >> i & 1:
                acc ^= basis_masks[i]
        if acc == x:
            hits.append(selector)
    return hits


def greedy_basis_oracle(masks: list[int]) -> list[int]:
    """Ascending-scan greedy basis using the rank oracle for each step."""
    chosen: list[int] = []
    for m in sorted(masks):
        if not chosen:
            chosen.append(m)
            continue
        if rank_oracle(chosen + [m]) > rank_oracle(chosen):
            chosen.append(m)
    return chosen


def has_quad(masks: list[int]) -> bool:
    return any(a ^ b ^ c ^ d == 0 for a, b, c, d in combinations(masks, 4))


def max_cap_size_exhaustive(dim: int) -> int:
    """Largest quad-free subset of the whole space, by checking every subset."""
    space = list(range(1 << dim))
    for size in range(1 << dim, 0, -1):
        for subset in combinations(space, size):
            if not has_quad(list(subset)):
                return size
    return 0


def equivalent_by_basis_images(masks1: list[int], masks2: list[int], n: int) -> bool:
    """Brute-force equivalence: try every ordered basis image with pruning.

    Fixes one affine basis of the first set and searches over ordered
    tuples from the second set as its image, extending partial maps only
    while every already-determined image lands inside the second set.
    """
    if len(masks1) != len(masks2):
        return False
    if rank_oracle(sorted(masks1)) != rank_oracle(sorted(masks2)):
        return False
    basis1 = greedy_basis_oracle(masks1)
    set2 = set(masks2)
    others1 = [m for m in sorted(masks1) if m not in set(basis1)]
    supports = [odd_subset_coordinates(basis1, x)[0] for x in others1]

    def assign(image: list[int], used: set[int]) -> bool:
        if len(image) == len(basis1):
            for sup in supports:
                acc = 0
                for i in range(len(basis1)):
                    if sup >> i & 1:
                        acc ^= image[i]
                if acc not in set2:
                    return False
            mapped = set(image)
            for sup in supports:
                acc = 0
                for i in range(len(basis1)):
                    if sup >> i & 1:
                        acc ^= image[i]
                mapped.add(acc)
            return mapped == set2
        for cand in masks2:
            if cand in used:
                continue
            image.append(cand)
            used.add(cand)
            if rank_oracle(image) == len(image) - 1:
                # prune: dependents fully inside the assigned prefix must map into set2
                ok = True
                for sup in supports:
                    if sup < (1 << len(image)):
                        acc = 0
                        for i in range(len(image)):
                            if sup >> i & 1:
                                acc ^= image[i]
                        if acc not in set2:
                            ok = False
                            break
                if ok and assign(image, used):
                    return True
            used.discard(cand)
            image.pop()
        return False

    return assign([], set())


def thirteen_cap_pair_survey() -> list[dict]:
    """Inclusion-exclusion verdict for every conceivable 13-point structure.

    A 13-point cap of dimension 7 would decompose into an 8-point basis
    and five dependents, each supported by exactly five basis points,
    with pairwise support intersections of size 2 or 3.  For each of the
    2^10 intersection-size patterns this derives the triple and
    quadruple intersection sizes, filters the patterns ruled out by the
    triple and quadruple theorems, and evaluates the five-fold
    intersection two ways: by inclusion-exclusion over the 8 basis
    points and by containment in the smallest quadruple intersection.
    No pattern survives both.
    """
    deps = range(5)
    pair_keys = list(combinations(deps, 2))
    results = []
    for bits in range(1 << len(pair_keys)):
        p = {key: (2 if bits >> i & 1 else 3) for i, key in enumerate(pair_keys)}

        def pair(i: int, j: int) -> int:
            return p[(i, j) if i < j else (j, i)]

        triples = {
            t: pair(t[0], t[1]) + pair(t[0], t[2]) + pair(t[1], t[2]) - 7
            for t in combinations(deps, 3)
        }
        # at most one pair of size 2 within any triple of dependents
        triples_ok = all(
            sum(1 for a, b in combinations(t, 2) if pair(a, b) == 2) <= 1
            for t in triples
        )
        quads = {}
        for q in combinations(deps, 4):
            sum_pairs = sum(pair(a, b) for a, b in combinations(q, 2))
            sum_triples = sum(triples[t] for t in combinations(q, 3))
            quads[q] = 20 - sum_pairs + sum_triples - 8
        # every quadruple of dependents must contain a pair of size 2
        quads_ok = all(
            any(pair(a, b) == 2 for a, b in combinations(q, 2)) for q in quads
        )
        survives = triples_ok and quads_ok
        inclusion_exclusion = (
            8 - 25 + sum(p.values()) - sum(triples.values()) + sum(quads.values())
        )
        containment_bound = min(quads.values())
        results.append(
            {
                "pairs": tuple(p[key] for key in pair_keys),
                "survives_lemmas": survives,
                "five_fold_by_inclusion_exclusion": inclusion_exclusion,
                "five_fold_upper_bound": containment_bound,
                "consistent": survives
                and 0 <= inclusion_exclusion <= containment_bound,
            }
        )
    return results


def no_thirteen_cap_structure() -> bool:
    """True iff every surviving 13-point pattern is self-contradictory."""
    survey = thirteen_cap_pair_survey()
    survivors = [row for row in survey if row["survives_lemmas"]]
    return bool(survivors) and all(not row["consistent"] for row in survivors)


# The two per-basis form kernels as they stood before the signature memo
# and the row-order refinement: the column normalisation and the
# column-by-column branch-and-bound, whose first optimal leaf fixes the
# tie rule.  They are kept as the differential reference, with their bit
# helpers, so that they share no code with the library.


def _transpose(vectors, n):
    """Bit-matrix transpose: bit i of entry j is bit j of vectors[i]."""
    out = [0] * n
    for i, vec in enumerate(vectors):
        for j in range(n):
            if vec >> j & 1:
                out[j] |= 1 << i
    return tuple(out)


def _columns_of(mask):
    """Indices of the set bits of mask, ascending."""
    cols = []
    while mask:
        low = mask & -mask
        mask ^= low
        cols.append(low.bit_length() - 1)
    return cols


def min_column_form_oracle(
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


def normalize_columns_oracle(
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


# The isomorphism builder as it stood when it completed both bases in
# lockstep, kept as the reference for how a basis of a cap that does not
# span its space is completed.


def map_from_bases_oracle(basis1: tuple[int, ...], basis2: tuple[int, ...], n: int) -> AffineMap:
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


def scan_oracle(cap):
    """Every basis subset in ascending index order, with the supports decompose gives it."""
    masks = cap.sorted_masks()
    out = []
    for subset in combinations(range(len(masks)), cap.dim + 1):
        if rank_oracle([masks[i] for i in subset]) == cap.dim:
            basis = [Point(masks[i], cap.n) for i in subset]
            out.append((subset, decompose(cap, basis).support_masks()))
    return tuple(out)


def last_in_series_oracle(cap):
    """Indices of the points that no later point is in series with, by
    rank alone: points i and j that each leave the rank whole when deleted
    are in series when deleting both lowers it ({i, j} is a cocircuit)."""
    masks = cap.sorted_masks()
    rank = rank_oracle(list(masks))

    def without(*drop):
        return rank_oracle([m for i, m in enumerate(masks) if i not in drop])

    free = [without(j) == rank for j in range(len(masks))]
    return {
        i for i in range(len(masks)) if not any(free[j] and without(i, j) < rank for j in range(i + 1, len(masks)))
    }


def class_scan_oracle(cap):
    """The bases of scan_oracle whose left-out points are each the last of
    their series class (equal dual columns), in the same order."""
    last = last_in_series_oracle(cap)
    return tuple(row for row in scan_oracle(cap) if set(range(cap.size)) - set(row[0]) <= last)


def class_key(sups, ncols):
    """The key decomp._basis_scan gives the class of a basis with these
    supports: per signature w < 2^r (the supports holding a column), its
    columns, plus one at w = 2^t for the t-th dependent itself."""
    key = [0] * (1 << len(sups))
    for c in range(ncols):
        key[sum(1 << t for t, sup in enumerate(sups) if sup >> c & 1)] += 1
    for t in range(len(sups)):
        key[1 << t] += 1
    return tuple(key)
