import random
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass import equivalence
from capclass.capset import Cap, extension_candidates
from capclass.equivalence import (
    _class_masks,
    _column_order,
    _least_basis,
    _map_from_bases,
    _min_column_form,
    _ordered_basis,
    are_equivalent,
    canonical_form,
    find_isomorphism,
    verify_map,
)
from capclass.errors import DimensionMismatchError, InvariantError, TooLargeError
from capclass.gf2 import AffineMap, PointSet, _transpose, apply_affine_map, random_invertible_affine
from capclass.classifier import classify
from capclass.decomp import ExtendedType, _every_basis, _raw_type, type_census
from capclass.templates import LABELS, higherdim_pair, instantiate

from oracles import (
    class_key,
    class_scan_oracle,
    classify_8_13_caps,
    equivalent_by_basis_images,
    form_oracle,
    image_cap,
    map_from_bases_oracle,
    normalize_columns_oracle,
    reference_form,
    structure_key,
)


@pytest.mark.parametrize("cap", (instantiate("T11_555_332"), higherdim_pair()[0]), ids=("dim7-template", "dim8-cap"))
def test_image_cap_applies_the_seeded_map(cap):
    for seed in (0, 1, 17):
        assert image_cap(cap, seed).points == apply_affine_map(random_invertible_affine(cap.n, seed), cap.points)


class TestCanonicalForm:
    def test_fields(self):
        cap = instantiate("T10_55_2")
        form = canonical_form(cap)
        assert form.n == 7
        assert form.size == 10
        assert len(form.dep_masks) == 10 - 8
        assert all(m.bit_count() % 2 == 1 for m in form.dep_masks)
        assert list(form.dep_masks) == sorted(form.dep_masks)

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_affine_maps(self, seed):
        cap = instantiate("T11_555_332")
        assert canonical_form(image_cap(cap, seed)) == canonical_form(cap)

    def test_shared_class_shares_form(self):
        assert canonical_form(instantiate("T10_75_4")) == canonical_form(instantiate("T10_55_2"))

    def test_distinct_classes_differ(self):
        assert canonical_form(instantiate("T10_55_2")) != canonical_form(instantiate("T10_55_3"))

    def test_desk_scale_guard(self):
        big = Cap(PointSet(16, tuple(1 << i for i in range(15))))
        with pytest.raises(TooLargeError):
            canonical_form(big)

    def test_independent_caps_compare_by_shape(self):
        a = Cap(PointSet(7, (0, 1, 2, 4, 8, 16, 32, 64)))
        b = image_cap(a, 17)
        assert canonical_form(a) == canonical_form(b)
        assert canonical_form(a).dep_masks == ()


class TestAreEquivalent:
    def test_twelve_cap_templates(self):
        assert are_equivalent(instantiate("T12_5555_233333"), instantiate("T12_5555_233332"))

    def test_higherdim_pair_differs(self):
        c1, c2 = higherdim_pair()
        assert not are_equivalent(c1, c2)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_relabelled_cap_is_equivalent_to_itself(self, seed):
        cap = instantiate("T12_7555")
        assert are_equivalent(cap, image_cap(cap, seed))

    def test_size_mismatch_is_never_equivalent(self):
        assert not are_equivalent(instantiate("R5"), instantiate("T10_55_2"))


class TestFindIsomorphism:
    def test_explicit_map_between_ten_cap_templates(self):
        a, b = instantiate("T10_75_4"), instantiate("T10_55_2")
        t = find_isomorphism(a, b)
        assert t is not None
        assert verify_map(t, a, b)

    def test_identity_case_fixes_the_cap_setwise(self):
        cap = instantiate("T11_555_333")
        t = find_isomorphism(cap, cap)
        assert t is not None
        assert verify_map(t, cap, cap)

    def test_no_map_between_distinct_classes(self):
        assert find_isomorphism(instantiate("T10_55_2"), instantiate("T10_55_3")) is None

    def test_no_map_for_higherdim_pair(self):
        c1, c2 = higherdim_pair()
        assert find_isomorphism(c1, c2) is None

    def test_mixed_ambient_dimensions_rejected(self):
        small = Cap(PointSet(6, (0, 1, 2)))
        with pytest.raises(DimensionMismatchError):
            find_isomorphism(small, instantiate("R5"))

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_found_maps_always_verify(self, seed):
        cap = instantiate("T11_755_443")
        other = image_cap(cap, seed)
        t = find_isomorphism(cap, other)
        assert t is not None and verify_map(t, cap, other)

    def test_dependent_source_basis_raises_typed_error(self):
        # 0, 1, 2, 3 is affinely dependent: 3 = 0 ^ 1 ^ 2
        with pytest.raises(InvariantError, match="source"):
            _map_from_bases((0, 1, 2, 3), (0, 1, 2, 4), 3)

    def test_dependent_image_basis_raises_typed_error(self):
        with pytest.raises(InvariantError, match="image"):
            _map_from_bases((0, 1, 2, 4), (0, 1, 2, 3), 3)


def caps_short_of_their_space():
    """Every template and a seeded 3-9-point sub-cap of it in AG(8..11,2): each spans less than its space."""
    rng = random.Random(11)
    for n in (8, 9, 10, 11):
        for label in LABELS:
            masks = instantiate(label).sorted_masks()
            yield Cap(PointSet(n, masks))
            yield Cap(PointSet(n, rng.sample(masks, rng.randint(3, min(9, len(masks))))))


@pytest.mark.parametrize("seed", (0, 1))
def test_maps_between_caps_short_of_their_space_match_reference(seed):
    for cap in caps_short_of_their_space():
        image = image_cap(cap, seed)
        assert cap.dim < cap.n
        basis1 = _ordered_basis(cap, _least_basis(cap))
        basis2 = _ordered_basis(image, _least_basis(image))
        got, want = _map_from_bases(basis1, basis2, cap.n), map_from_bases_oracle(basis1, basis2, cap.n)
        assert (got.rows, got.translation) == (want.rows, want.translation)
        assert verify_map(got, cap, image)


class TestVerifyMap:
    def test_identity(self):
        cap = instantiate("R7")
        assert verify_map(AffineMap.identity(7), cap, cap)

    def test_translation(self):
        cap = instantiate("R7")
        shift = AffineMap(7, AffineMap.identity(7).rows, 33)
        shifted = Cap(apply_affine_map(shift, cap.points))
        assert verify_map(shift, cap, shifted)

    def test_wrong_map_fails(self):
        a, b = instantiate("T10_55_2"), instantiate("T10_55_3")
        assert not verify_map(AffineMap.identity(7), a, b)

    def test_implies_equivalence(self):
        a, b = instantiate("T11_555_333"), instantiate("T11_555_332")
        t = find_isomorphism(a, b)
        assert verify_map(t, a, b)
        assert are_equivalent(a, b)


class TestBruteForceAgreement:
    def caps_of_dim(self, dim, size):
        from capclass.classifier import classify

        return [e.cap for e in classify(dim, size).rows.get(size, ())]

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_small_caps_agree_with_basis_image_search(self, seed1, seed2):
        base = Cap(PointSet(4, (0, 1, 2, 4, 8, 15)))
        c1 = image_cap(base, seed1)
        other = Cap(PointSet(4, (0, 1, 2, 4, 8)))  # independent 5-set, not equivalent
        c2 = image_cap(other, seed2)
        assert are_equivalent(c1, image_cap(base, seed2))
        assert equivalent_by_basis_images(list(c1.sorted_masks()), list(image_cap(base, seed2).sorted_masks()), 4)
        assert not are_equivalent(c1, c2)
        assert not equivalent_by_basis_images(list(c1.sorted_masks()), list(c2.sorted_masks()), 4)

    def test_dim6_representatives_pairwise(self):
        from capclass.classifier import classify

        table = classify(6, 10)
        reps = [e.cap for size in table.rows for e in table.entries(size)]
        for i, a in enumerate(reps):
            for b in reps[i:]:
                expected = equivalent_by_basis_images(
                    list(a.sorted_masks()), list(b.sorted_masks()), 6
                )
                assert are_equivalent(a, b) == expected


def relabel(mask, order):
    """mask with column order[i] moved to position i."""
    return sum(1 << i for i, c in enumerate(order) if mask >> c & 1)


def random_supports(rng):
    ncols = rng.randint(1, 7)
    r = rng.randint(1, min(4, (1 << ncols) - 1))
    return tuple(rng.sample(range(1, 1 << ncols), r)), ncols


def brute_force_min_form(sups, ncols):
    return min(tuple(sorted(relabel(s, order) for s in sups)) for order in permutations(range(ncols)))


def ordered_form(sups, ncols):
    """The least masks of one basis, through the memo on its class key,
    with the order the winning basis takes."""
    return _class_masks(class_key(sups, ncols)), _column_order(sups, ncols)


def refined_form(sups, ncols):
    """The least masks of one basis straight from the refinement of its
    column signatures, with the order the winning basis takes."""
    return _min_column_form(sups, _transpose(sups, ncols))[0], _column_order(sups, ncols)


class TestMinimalFormAgainstAllColumnOrders:
    @pytest.mark.parametrize("form_of", (refined_form, ordered_form))
    def test_seeded_random_supports(self, form_of):
        rng = random.Random(2024)
        for _ in range(300):
            sups, ncols = random_supports(rng)
            masks, order = form_of(sups, ncols)
            assert sorted(order) == list(range(ncols))
            assert tuple(sorted(relabel(s, order) for s in sups)) == masks
            assert masks == brute_force_min_form(sups, ncols), (sups, ncols)

    def test_single_support_packs_its_columns_first(self):
        # one support: the minimum is its columns packed low, and the order
        # takes its columns ascending, then the rest ascending
        for ncols in range(1, 9):
            for sup in range(1, 1 << ncols):
                cols = [c for c in range(ncols) if sup >> c & 1]
                rest = [c for c in range(ncols) if not sup >> c & 1]
                want = (((1 << len(cols)) - 1,), tuple(cols + rest))
                assert ordered_form((sup,), ncols) == want, (sup, ncols)


def supports_from_signatures(sigs, r):
    """The r support masks whose column c has membership signature sigs[c]."""
    return tuple(sum(1 << c for c, sig in enumerate(sigs) if sig >> s & 1) for s in range(r))


def seeded_kernel_inputs():
    """(sups, ncols) with r = 1..6 and ncols = 1..11, drawing each column's
    signature from a small pool so that signatures repeat, the empty one
    (a column in no support) included half the time."""
    rng = random.Random(8)
    cases = []
    for _ in range(1500):
        r, ncols = rng.randint(1, 6), rng.randint(1, 11)
        pool = [rng.randrange(1 << r) for _ in range(rng.randint(1, ncols))]
        if rng.random() < 0.5:
            pool.append(0)
        sigs = [rng.choice(pool) for _ in range(ncols)]
        cases.append((supports_from_signatures(sigs, r), ncols))
    return cases


def tie_heavy_inputs():
    """(sups, ncols) with r = 5, 6 whose signatures are whole orbits of the
    row permutations (every row of one size, every pair meeting equally),
    once or twice each, with or without an empty column; many column
    orders tie for the minimum, so the returned order rests on the tie rule."""
    rng = random.Random(11)
    cases = []
    for r in (5, 6):
        for ks in [(k,) for k in range(1, r + 1)] + list(combinations(range(1, r + 1), 2)):
            orbits = [sum(1 << s for s in rows) for k in ks for rows in combinations(range(r), k)]
            for copies in (1, 2):
                for empty in (0, 1):
                    sigs = orbits * copies + [0] * empty
                    if len(sigs) <= 10:
                        rng.shuffle(sigs)
                        cases.append((supports_from_signatures(sigs, r), len(sigs)))
    return cases


def normalized(rows):
    """The rows relabeled by normalize_columns_oracle, sorted, one per normalized key."""
    return sorted({(tuple(sorted(normalize_columns_oracle(*row)[0])), row[1]) for row in rows})


def dim8_normalized_basis_rows():
    """The basis rows of the classify(8, 13) representatives (ncols = 9),
    relabeled, one per normalized key."""
    return normalized({(sups, 9) for cap in classify_8_13_caps() for _, sups in _every_basis(cap.sorted_masks(), 9)})


@cache
def classified_basis_rows():
    """Every basis row of the classify(7,13) and classify(6,10)
    representatives and of two seeded affine images of each."""
    rows = set()
    for table in (classify(7, 13), classify(6, 10)):
        for size in table.rows:
            for entry in table.entries(size):
                for cap in (entry.cap, image_cap(entry.cap, 1), image_cap(entry.cap, 2)):
                    bc = cap.dim + 1
                    rows.update((sups, bc) for _, sups in _every_basis(cap.sorted_masks(), bc))
    return sorted(rows)


def normalized_basis_rows():
    """The classified basis rows, relabeled and kept one per normalized key."""
    return normalized(classified_basis_rows())


class TestFormKernelsMatchReference:
    """The memoised normalisation and the row-order refinement return
    exactly what the reference kernels in tests/oracles.py return."""

    def test_seeded_inputs_cover_repeats_and_empty_columns(self):
        cases = seeded_kernel_inputs()
        member = [[sum(1 << s for s, sup in enumerate(sups) if sup >> c & 1) for c in range(ncols)]
                  for sups, ncols in cases]
        assert any(len(set(sigs)) < len(sigs) for sigs in member)
        assert any(0 in sigs for sigs in member)
        # two distinct supports of one size, where the tie rule and an order
        # by support size alone can pick different optimal orders
        assert any(len(sups) == 2 and sups[0] != sups[1] and sups[0].bit_count() == sups[1].bit_count()
                   for sups, _ in cases)
        assert {len(sups) for sups, _ in cases} == set(range(1, 7))
        assert {ncols for _, ncols in cases} == set(range(1, 12))

    @pytest.mark.parametrize(
        "inputs", (seeded_kernel_inputs, classified_basis_rows, tie_heavy_inputs, dim8_normalized_basis_rows)
    )
    def test_column_order(self, inputs):
        # the reference rule relabels columns by refined colour, minimises and
        # maps the order back; every optimal order has the same colour at
        # each position, so it picks the least order in the input labels.
        for sups, ncols in inputs():
            assert _column_order(sups, ncols) == reference_form(sups, ncols)[1], (sups, ncols)

    @pytest.mark.parametrize(
        "inputs", (seeded_kernel_inputs, normalized_basis_rows, tie_heavy_inputs, dim8_normalized_basis_rows)
    )
    def test_min_column_form(self, inputs):
        # only _column_order builds an order
        for sups, ncols in inputs():
            masks, order = form_oracle(sups, ncols)
            assert _min_column_form(sups, _transpose(sups, ncols))[0] == masks, (sups, ncols)
            assert _column_order(sups, ncols) == order, (sups, ncols)

    @pytest.mark.parametrize("inputs", (seeded_kernel_inputs, tie_heavy_inputs))
    def test_reference_ignores_row_order_and_column_labels(self, inputs):
        # the shared reference searches the normalised, row-sorted structure
        for sups, ncols in inputs():
            assert reference_form(sups, ncols) == form_oracle(sups, ncols), (sups, ncols)

    @pytest.mark.parametrize(
        "inputs", (seeded_kernel_inputs, classified_basis_rows, tie_heavy_inputs, dim8_normalized_basis_rows)
    )
    def test_class_masks(self, inputs, monkeypatch):
        # a cold memo, then hits; rows with two supports go through the
        # same memoised kernel as the rest
        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        cases = [(row, reference_form(*row)[0]) for row in inputs()]
        for _ in range(2):
            for row, want in cases:
                assert _class_masks(class_key(*row)) == want, row

    def test_two_supports_are_memoised_like_the_rest(self, monkeypatch):
        # a miss stores the scanned key and the key with its rows sorted
        # (the smaller support first); the other row order then hits
        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        key, swapped = class_key((0b0111, 0b1100), 5), class_key((0b1100, 0b0111), 5)
        assert _class_masks(key) == (0b0011, 0b1101)
        assert equivalence._NORM_FORM_CACHE == {key: (0b0011, 0b1101), swapped: (0b0011, 0b1101)}

        def refuse(sups, member):
            raise AssertionError("a memoised structure was refined again")

        monkeypatch.setattr(equivalence, "_min_column_form", refuse)
        assert _class_masks(swapped) == (0b0011, 0b1101)

    def test_cell_with_two_signatures_raises(self, monkeypatch):
        # a membership table that disagrees with the supports leaves two
        # signatures in one final cell, on the memo's path and on the
        # ordering path; the check must survive python -O
        with pytest.raises(InvariantError, match="two signatures"):
            _min_column_form((0b11,), (1, 2))
        monkeypatch.setattr(equivalence, "_transpose", lambda vectors, n: (1, 2))
        with pytest.raises(InvariantError, match="two signatures"):
            _column_order((0b11,), 2)


class TestOnlyTheWinnerIsOrdered:
    def test_canonical_form_never_normalises(self, monkeypatch):
        cap = image_cap(instantiate("T12_5555_233333"), 5)
        want = canonical_form(cap)

        def refuse(sups, ncols):
            raise AssertionError("canonical_form ordered a basis")

        monkeypatch.setattr(equivalence, "_column_order", refuse)
        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        assert canonical_form(cap) == want

    def test_winner_disagreeing_with_the_form_raises(self, monkeypatch):
        # the supports are packed under the returned order and checked
        # against the form; a typed error, so it survives python -O
        def reversed_order(sups, ncols):
            return tuple(reversed(_column_order(sups, ncols)))

        monkeypatch.setattr(equivalence, "_column_order", reversed_order)
        # one ordering rule for three dependents and for two
        for label in ("T11_555_332", "T10_55_3"):
            cap = instantiate(label)
            with pytest.raises(InvariantError, match="winning basis"):
                find_isomorphism(cap, image_cap(cap, 3))


@cache
def formed_caps(dim):
    """The distinct caps that classify(dim, 13) passes to canonical_form:
    each frame, and every extension of a representative below 13 points."""
    caps = {}
    table = classify(dim, 13)
    for size in sorted(table.rows):
        for entry in table.entries(size):
            caps.setdefault(entry.cap.sorted_masks(), entry.cap)
            if size < 13:
                base = entry.cap.sorted_masks()
                for z in extension_candidates(entry.cap).sorted_masks():
                    cap = Cap(PointSet(dim, base + (z,)))
                    caps.setdefault(cap.sorted_masks(), cap)
    return list(caps.values())


@cache
def differential_caps():
    """The caps classify(6|7|8, 13) passes to canonical_form, and three
    seeded images of every template and of the higherdim pair."""
    templates = [instantiate(label) for label in LABELS] + list(higherdim_pair())
    caps = [cap for dim in (6, 7, 8) for cap in formed_caps(dim)]
    return caps + [image_cap(cap, seed) for cap in templates for seed in (1, 2, 3)]


_LEAST_MASKS: dict = {}


def least_masks(sups, ncols):
    """_min_column_form's least masks of one basis, memoised here on the
    number of supports and the sorted column signatures (the set of
    supports holding each column): the least masks ignore the order of
    the supports and the column labels."""
    member = _transpose(sups, ncols)
    key = (len(sups), tuple(sorted(member)))
    if key not in _LEAST_MASKS:
        _LEAST_MASKS[key] = _min_column_form(sups, member)[0]
    return _LEAST_MASKS[key]


class TestOneBasisPerClassMatchesEveryBasis:
    """_least_basis and type_census read one basis per series class; over
    every basis the first basis reaching the least masks and the set of
    extended types are the same."""

    @pytest.fixture(scope="class")
    def every_basis(self):
        """Each differential cap with its _every_basis, built once for both tests."""
        return [(cap, _every_basis(cap.sorted_masks(), cap.dim + 1)) for cap in differential_caps()]

    def test_least_basis(self, every_basis):
        for cap, every in every_basis:
            bc = cap.dim + 1
            want = None
            for subset, sups in every:
                masks = least_masks(sups, bc)
                if want is None or masks < want[0]:
                    want = (masks, subset, sups)
            assert _least_basis(cap) == want

    def test_type_census(self, every_basis):
        # ExtendedType.from_supports(sups) is ExtendedType(*_raw_type(sups)): one per distinct raw type
        for cap, every in every_basis:
            raw = {_raw_type(sups) for _, sups in every}
            assert type_census(cap) == frozenset(ExtendedType(*r) for r in raw)


# The representatives of the 14-point row of classify(8, 14): five
# classes, each basis with five dependents.
CLASSIFY_8_14_ROW = (
    (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 106, 128, 150),
    (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 106, 128, 155),
    (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 106, 128, 252),
    (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 128, 150, 232),
    (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 128, 154, 225),
)
CLASS_ORACLE_GROUPS = ("template-images", "classify-7-13", "classify-8-13-sample", "classify-8-14-row")


@cache
def class_oracle_caps():
    """Twenty seeded images of each template, every cap classify(7, 13)
    forms, a seeded sample of those classify(8, 13) forms, and the
    14-point representatives of classify(8, 14)."""
    return dict(zip(CLASS_ORACLE_GROUPS, (
        [image_cap(instantiate(label), seed) for label in LABELS for seed in range(20)],
        formed_caps(7),
        random.Random(813).sample(formed_caps(8), 60),
        [Cap(PointSet(8, masks)) for masks in CLASSIFY_8_14_ROW],
    )))


oracle_rows = cache(class_scan_oracle)


def least_basis_oracle(cap):
    """The first basis in class_scan_oracle order whose supports reach the
    least masks of _min_column_form."""
    best = None
    for subset, sups in oracle_rows(cap):
        masks = least_masks(sups, cap.dim + 1)
        if best is None or masks < best[0]:
            best = (masks, subset, sups)
    return best


class TestValueSearchMatchesClassScanOracle:
    """_least_basis and type_census read the search over dual values;
    class_scan_oracle finds the same bases by brute force over subsets
    and reads their supports from decompose, using neither that search
    nor its class keys."""

    @pytest.mark.parametrize("group", CLASS_ORACLE_GROUPS)
    def test_least_basis(self, group):
        for cap in class_oracle_caps()[group]:
            assert _least_basis(cap) == least_basis_oracle(cap), cap.sorted_masks()

    # the type census stops at 13 points
    @pytest.mark.parametrize("group", CLASS_ORACLE_GROUPS[:3])
    def test_type_census(self, group):
        # ExtendedType.from_supports(sups) is ExtendedType(*_raw_type(sups)): one per distinct raw type
        for cap in class_oracle_caps()[group]:
            raw = {_raw_type(sups) for _, sups in oracle_rows(cap)}
            assert type_census(cap) == frozenset(ExtendedType(*r) for r in raw), cap.sorted_masks()


def test_form_caches_stay_bounded(monkeypatch):
    caps = [image_cap(instantiate(label), seed) for label in ("T11_555_332", "T11_755_443") for seed in (1, 2)]
    for name in ("_RAW_FORM_CACHE", "_NORM_FORM_CACHE"):
        monkeypatch.setattr(equivalence, name, {})
    expected = [_ordered_basis(cap, _least_basis(cap)) for cap in caps]
    limit = 3
    assert len(equivalence._NORM_FORM_CACHE) > limit
    monkeypatch.setattr(equivalence, "_RAW_CACHE_LIMIT", limit)
    monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
    for cap, want in zip(caps, expected):
        assert _ordered_basis(cap, _least_basis(cap)) == want
        assert len(equivalence._NORM_FORM_CACHE) <= limit
    # bound for perfbench's tracer only: the form path never fills it
    assert not equivalence._RAW_FORM_CACHE


@cache
def row_order_caps():
    """The representatives of classify(7, 13) and classify(8, 13), and the
    14-point cap of the r = 5 equiv pin (dim8-14cap-0 in tests/pins.json)."""
    table = classify(7, 13)
    dim7 = [entry.cap for size in table.rows for entry in table.entries(size)]
    return {"classify-7-13": dim7, "classify-8-13": classify_8_13_caps(), "golden-14-cap": [Cap(PointSet(8, CLASSIFY_8_14_ROW[0]))]}


class TestRowOrdersShareOneRefinement:
    """A miss of a class key also reads the key with its rows sorted, so
    the row orders of one structure share one refinement; whichever row
    order meets the memo first, every order gets the reference masks."""

    @pytest.mark.parametrize("group", ("classify-7-13", "classify-8-13", "golden-14-cap"))
    def test_every_row_permutation_gets_the_reference_masks(self, group, monkeypatch):
        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        # the reference masks per structure, free of row and column labels
        want_of = {}
        for cap in row_order_caps()[group]:
            bc = cap.dim + 1
            # one basis per class key, from the brute-force scan
            sups_of = {}
            for _, sups in oracle_rows(cap):
                sups_of.setdefault(class_key(sups, bc), sups)
            for sups in sups_of.values():
                structure = structure_key(sups, bc)
                if structure not in want_of:
                    want_of[structure] = reference_form(sups, bc)[0]
                want = want_of[structure]
                for rows in permutations(sups):
                    key = class_key(rows, bc)
                    assert _class_masks(key) == want, (cap.sorted_masks(), key)

    def test_cold_classify_refines_once_per_sorted_structure(self, monkeypatch):
        # cold classify(8, 13) meets 899 class keys of 101 structures (least
        # masks); keyed on the scanned rows alone, it refined all 899
        runs = []
        refine = equivalence._min_column_form

        def counted(sups, member):
            runs.append(sups)
            return refine(sups, member)

        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        monkeypatch.setattr(equivalence, "_min_column_form", counted)
        classify(8, 13)
        assert len(set(equivalence._NORM_FORM_CACHE.values())) == 101
        assert len(runs) <= 137
