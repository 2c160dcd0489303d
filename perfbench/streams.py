"""Seeded inputs for the equiv-stream workload, and the checks that judge them.

Everything here that decides a verdict is plain Python written for the
benchmark and shares no code with capclass: the cap generator, the rank
test, the affine invariant that makes a negative pair certain, and the
point-by-point check of a returned map.  capclass enters only through
the two gf2 calls that draw and apply the random affine images, and each
image is checked here before it is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

# The stream: (ambient dimension, cap size, positive pairs, negative pairs),
# 240 pairs shuffled together.  Each pair is decided in a fresh fork of
# the worker, as a `capclass equiv` process would decide it, so no pair
# finds another pair's work in the caches.  Costs with cold caches on a
# shared 2-vCPU Xeon: dim-8 12-caps 20-170 ms, dim-9 13-caps 20-400 ms.
# The median of a run's pairs moves with the seed by about 1/sqrt(pairs),
# so the stream is as long as one run allows.
MIX = (
    (8, 12, 100, 20),
    (9, 13, 100, 20),
)

# One cap from each affine class of spanning 12-caps in AG(8,2); there are
# five (classify(8, 13) counts them).  These were drawn with random_cap
# and are told apart by their triple-sum profiles.  Dim-8 caps of the
# stream are random affine images of them, taken in turn: every seed
# meets each class equally often, where plain random draws meet the
# rarest class in under 1% of cases.
D8_CLASSES = {
    12: (
        (39, 79, 90, 105, 117, 121, 140, 148, 172, 201, 207, 229),
        (9, 21, 44, 104, 133, 139, 163, 179, 203, 208, 213, 244),
        (4, 11, 25, 35, 67, 136, 146, 182, 187, 189, 217, 255),
        (2, 91, 108, 122, 155, 161, 165, 197, 198, 216, 240, 250),
        (7, 29, 41, 43, 45, 131, 132, 137, 138, 184, 224, 255),
    ),
}

# The triple-sum profiles of spanning 13-caps in AG(9,2), most common
# first; together they cover about 11 affine classes.  Dim-9 caps are drawn
# at random until one has the next profile in turn, so every seed meets
# each profile equally often.  A further profile, ((1, 174), (2, 54),
# (4, 1)), turns up in 0.2% of draws and is left out to keep set-up short.
D9_13_PROFILES = (
    ((1, 209), (2, 37), (3, 1)),
    ((1, 226), (2, 30)),
    ((1, 192), (2, 44), (3, 2)),
    ((1, 246), (2, 20)),
    ((1, 178), (2, 48), (3, 4)),
    ((1, 229), (2, 27), (3, 1)),
    ((1, 206), (2, 40)),
)
_DRAWS = 500


@dataclass(frozen=True)
class Pair:
    """Two caps as sorted point masks, with the verdict known in advance."""

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    equivalent: bool


def affine_rank(masks: tuple[int, ...]) -> int:
    """Rank of the differences to the first point, by row reduction."""
    pivots: dict[int, int] = {}
    t = masks[0]
    for m in masks[1:]:
        v = m ^ t
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def random_cap(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """A k-point cap spanning AG(n,2): random points kept while pair sums stay distinct."""
    for _ in range(_DRAWS):
        chosen: set[int] = set()
        sums: set[int] = set()
        for _ in range(4 << n):
            z = rng.getrandbits(n)
            if z in chosen:
                continue
            fresh = {z ^ p for p in chosen}
            if fresh & sums:
                continue
            chosen.add(z)
            sums |= fresh
            if len(chosen) == k:
                break
        masks = tuple(sorted(chosen))
        if len(masks) == k and affine_rank(masks) == n:
            return masks
    raise RuntimeError(f"no spanning {k}-cap found in AG({n},2)")


def triple_sum_profile(masks: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """How many points are the sum of exactly r triples of the cap, for each r.

    An affine map T sends a+b+c to T(a)+T(b)+T(c) and permutes the
    points of the space, so this profile is an affine invariant.  Its
    support size is the size of the first quad closure minus the cap.
    """
    hits: dict[int, int] = {}
    for a, b, c in combinations(masks, 3):
        y = a ^ b ^ c
        hits[y] = hits.get(y, 0) + 1
    profile: dict[int, int] = {}
    for r in hits.values():
        profile[r] = profile.get(r, 0) + 1
    return tuple(sorted(profile.items()))


def map_point(rows: tuple[int, ...], translation: int, x: int) -> int:
    """Image of x under x -> Lx + b, where rows[i] is row i of L."""
    y = translation
    for i, row in enumerate(rows):
        if (row & x).bit_count() & 1:
            y ^= 1 << i
    return y


def carries(rows: tuple[int, ...], translation: int, n: int, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff the map is invertible on AG(n,2) and sends the set a onto the set b."""
    if len(rows) != n or any(not 0 <= row < 1 << n for row in rows):
        return False
    if affine_rank((0,) + tuple(rows)) != n:
        return False
    return sorted(map_point(rows, translation, x) for x in a) == sorted(b)


def _affine_image(gf2, rng: random.Random, n: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """A random affine image drawn with capclass.gf2, checked point by point here."""
    t = gf2.random_invertible_affine(n, rng.getrandbits(64))
    image = tuple(gf2.apply_affine_map(t, gf2.PointSet(n, masks)).sorted_masks())
    if not carries(t.rows, t.translation, n, masks, image):
        raise RuntimeError("gf2 produced a map that is not an invertible image of the cap")
    return image


def build_stream(seed: int | str) -> list[Pair]:
    """The seeded stream of MIX, shuffled.

    No cap is drawn twice as a point set.  A positive pairs a cap with a
    random affine image of itself.  A negative pairs two caps of one size
    whose triple-sum profiles differ, so no affine map can carry one onto
    the other.
    """
    from capclass import gf2

    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    turn = {(n, k): 0 for n, k, _, _ in MIX}

    def fresh_cap(n: int, k: int) -> tuple[int, ...]:
        """A new cap of the next class (dim 8) or triple-sum profile (dim 9) in turn."""
        for _ in range(_DRAWS):
            if n == 8:
                reps = D8_CLASSES[k]
                masks = _affine_image(gf2, rng, n, reps[turn[n, k] % len(reps)])
            else:
                masks = random_cap(rng, n, k)
                if triple_sum_profile(masks) != D9_13_PROFILES[turn[n, k] % len(D9_13_PROFILES)]:
                    continue
            if masks not in seen:
                seen.add(masks)
                turn[n, k] += 1
                return masks
        raise RuntimeError(f"no new {k}-cap in AG({n},2) of the class or profile in turn")

    stream = []
    for n, k, positives, negatives in MIX:
        for _ in range(positives):
            a = fresh_cap(n, k)
            stream.append(Pair(n, a, _affine_image(gf2, rng, n, a), True))
        for _ in range(negatives):
            # consecutive turns differ in class or profile
            a, b = fresh_cap(n, k), fresh_cap(n, k)
            if triple_sum_profile(a) == triple_sum_profile(b):
                raise RuntimeError("a negative pair shares its triple-sum profile")
            stream.append(Pair(n, a, b, False))
    rng.shuffle(stream)
    return stream
