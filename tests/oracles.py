"""Slow, independent re-implementations used as test oracles only."""

from __future__ import annotations

from itertools import combinations


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
