import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidBasisError,
    NotInSpanError,
)
from capclass.gf2 import (
    AffineMap,
    Point,
    PointSet,
    XorBasis,
    _transpose,
    affine_dim,
    affine_span,
    apply_affine_map,
    coordinates,
    extract_basis,
    is_affinely_independent,
    random_invertible_affine,
    xor_sum,
)

from oracles import _transpose as transpose_oracle
from oracles import greedy_basis_oracle, odd_subset_coordinates, odd_sum_closure, rank_oracle

FRAME7 = (0, 1, 2, 4, 8, 16, 32, 64)


def pts(n, *masks):
    return [Point(m, n) for m in masks]


def pset(n, *masks):
    return PointSet(n, masks)


@st.composite
def point_sets(draw, min_size=1, max_size=10, max_n=8):
    n = draw(st.integers(3, max_n))
    size = draw(st.integers(min_size, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return PointSet(n, masks)


class TestXorSum:
    def test_disjoint_unit_vectors(self):
        assert xor_sum(pts(4, 1, 2, 4)).mask == 7

    def test_self_inverse(self):
        assert xor_sum(pts(4, 15, 15)).mask == 0

    def test_five_terms(self):
        assert xor_sum(pts(4, 0, 1, 2, 4, 8)).mask == 15

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            xor_sum([Point(1, 3), Point(1, 4)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            xor_sum([])


class TestAffineSpan:
    def test_single_point_is_zero_flat(self):
        assert affine_span(pset(4, 5)).sorted_masks() == (5,)

    def test_two_dim_flat_has_four_points(self):
        assert affine_span(pset(3, 0, 1, 2)).sorted_masks() == (0, 1, 2, 3)

    def test_frame_spans_everything(self):
        # oracle: saturate under triple XORs until closed
        expected = odd_sum_closure(set(FRAME7))
        assert expected == set(range(128))
        assert affine_span(PointSet(7, FRAME7)).masks == frozenset(range(128))

    @given(point_sets(max_size=7, max_n=5))
    def test_matches_odd_sum_closure(self, s):
        assert affine_span(s).masks == odd_sum_closure(set(s.sorted_masks()))

    def test_idempotent_and_power_of_two(self):
        s = pset(5, 3, 7, 19, 21)
        span = affine_span(s)
        assert affine_span(span) == span
        assert len(span) == 1 << affine_dim(s)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            affine_span(PointSet(4))


class TestAffineDim:
    def test_point(self):
        assert affine_dim(pset(3, 7)) == 0

    def test_plane(self):
        assert affine_dim(pset(3, 0, 1, 2, 3)) == 2

    def test_ten_cap_template_dimension(self):
        assert affine_dim(pset(7, *FRAME7, 15, 124)) == 7

    @given(point_sets())
    def test_matches_rank_oracle(self, s):
        assert affine_dim(s) == rank_oracle(list(s.sorted_masks()))


class TestIndependence:
    def test_independent_quadruple(self):
        assert is_affinely_independent(pset(3, 0, 1, 2, 4))

    def test_plane_is_dependent(self):
        assert not is_affinely_independent(pset(3, 0, 1, 2, 3))

    def test_frame_plus_dependent_point(self):
        assert not is_affinely_independent(pset(7, *FRAME7, 15))


class TestExtractBasis:
    def test_greedy_drops_the_sum(self):
        assert [p.mask for p in extract_basis(pset(3, 0, 1, 2, 3))] == [0, 1, 2]

    def test_single_point(self):
        assert [p.mask for p in extract_basis(pset(4, 5))] == [5]

    def test_independent_set_survives_sorted(self):
        s = pset(7, 64, 1, 8, 0)
        assert [p.mask for p in extract_basis(s)] == [0, 1, 8, 64]

    @given(point_sets())
    def test_matches_greedy_oracle(self, s):
        got = [p.mask for p in extract_basis(s)]
        assert got == greedy_basis_oracle(list(s.sorted_masks()))
        assert is_affinely_independent(PointSet(s.n, got))
        assert affine_span(PointSet(s.n, got)) == affine_span(s)


class TestCoordinates:
    def test_exhaustive_oracle_agrees_on_frame(self):
        basis = pts(7, *FRAME7)
        hits = odd_subset_coordinates(list(FRAME7), 15)
        assert hits == [0b00011111]
        assert coordinates(basis, Point(15, 7)) == 0b00011111

    def test_basis_element(self):
        assert coordinates(pts(7, *FRAME7), Point(1, 7)) == 0b10

    def test_full_triple(self):
        assert coordinates(pts(2, 0, 1, 2), Point(3, 2)) == 0b111

    def test_not_in_span(self):
        with pytest.raises(NotInSpanError):
            coordinates(pts(3, 0, 1), Point(4, 3))

    def test_dependent_basis_rejected(self):
        with pytest.raises(InvalidBasisError):
            coordinates(pts(3, 0, 1, 2, 3), Point(1, 3))

    @given(point_sets(min_size=2, max_size=9))
    def test_round_trip(self, s):
        basis = extract_basis(s)
        for x in s:
            mask = coordinates(basis, x)
            assert mask.bit_count() % 2 == 1
            chosen = [basis[i] for i in range(len(basis)) if mask >> i & 1]
            assert xor_sum(chosen) == x


class TestAffineMap:
    def test_identity_fixes_sets(self):
        s = pset(4, 1, 7, 9)
        assert apply_affine_map(AffineMap.identity(4), s) == s

    def test_translation_swaps(self):
        t = AffineMap.translation_by(Point(1, 3))
        assert apply_affine_map(t, pset(3, 0, 1)) == pset(3, 0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_affine_map(AffineMap.identity(3), pset(4, 1))

    @pytest.mark.parametrize("n", [0, 17])
    def test_dimension_outside_the_point_range_is_refused(self, n):
        with pytest.raises(ValueError, match=r"ambient dimension must be in 1\.\.16, got"):
            AffineMap(n, tuple(1 << i for i in range(n)), 0)
        with pytest.raises(ValueError, match=r"ambient dimension must be in 1\.\.16, got"):
            random_invertible_affine(n, 0)

    def test_seeded_generation_is_deterministic(self):
        assert random_invertible_affine(7, 0) == random_invertible_affine(7, 0)
        assert random_invertible_affine(7, 0) != random_invertible_affine(7, 1)

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_generated_maps_invert(self, seed, n):
        t = random_invertible_affine(n, seed)
        assert t.is_invertible
        ident = t.compose(t.inverse())
        assert ident == AffineMap.identity(n)
        assert t.inverse().compose(t) == AffineMap.identity(n)

    @pytest.mark.parametrize("rows", [(0,), (1, 1), (3, 1, 2), (5, 6, 3), (1, 2, 0)])
    def test_singular_map_has_no_inverse(self, rows):
        t = AffineMap(len(rows), rows, 1)
        assert not t.is_invertible
        with pytest.raises(ValueError):
            t.inverse()

    @given(st.integers(0, 100), point_sets())
    def test_span_commutes_with_invertible_maps(self, seed, s):
        t = random_invertible_affine(s.n, seed)
        assert affine_span(apply_affine_map(t, s)) == apply_affine_map(t, affine_span(s))

    @given(st.integers(0, 100), point_sets(min_size=3, max_size=7))
    @settings(max_examples=40)
    def test_odd_sums_are_preserved(self, seed, s):
        t = random_invertible_affine(s.n, seed)
        points = list(s)[:5]
        if len(points) % 2 == 0:
            points = points[:-1]
        assert t(xor_sum(points)) == xor_sum([t(p) for p in points])


def seeded_map(n, seed, invertible):
    """An affine map on AG(n,2): random_invertible_affine's, or rows drawn freely and made singular."""
    if invertible:
        return random_invertible_affine(n, seed)
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(n)]
    rows[rng.randrange(n)] = 0
    return AffineMap(n, tuple(rows), rng.getrandbits(n))


class TestCompose:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kinds", [(True, True), (True, False), (False, True), (False, False)])
    def test_compose_is_self_after_other(self, n, kinds):
        for seed in range(5):
            a = seeded_map(n, 2 * seed, kinds[0])
            b = seeded_map(n, 2 * seed + 1, kinds[1])
            ab = a.compose(b)
            assert all(ab.apply_mask(x) == a.apply_mask(b.apply_mask(x)) for x in range(1 << n))

    def test_argument_order_matters(self):
        a = AffineMap(2, (0b01, 0b11), 0b01)
        b = AffineMap(2, (0b10, 0b01), 0b00)
        assert a.compose(b) != b.compose(a)
        assert a.compose(b).apply_mask(0b01) == a.apply_mask(b.apply_mask(0b01)) == 0b11
        assert b.compose(a).apply_mask(0b01) == b.apply_mask(a.apply_mask(0b01)) == 0b01

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            AffineMap.identity(3).compose(AffineMap.identity(4))


class TestXorBasis:
    @pytest.mark.parametrize("seed", range(20))
    def test_insert_reports_rank_growth(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        vectors = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        xb = XorBasis()
        for i, v in enumerate(vectors):
            # rank_oracle is affine, so a leading zero makes it the linear rank of the rest
            grows = rank_oracle([0] + vectors[: i + 1]) > rank_oracle([0] + vectors[:i])
            before = dict(xb.table)
            assert xb.insert(v, 1 << i) == grows
            if not grows:
                assert xb.table == before

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_names_inserted_vectors(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        vectors = [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
        xb = XorBasis()
        for i, v in enumerate(vectors):
            xb.insert(v, 1 << i)
        # the affine span of the vectors and zero is their linear span
        span = odd_sum_closure({0, *vectors})
        for x in range(1 << n):
            marker = xb.solve(x)
            if x not in span:
                assert marker is None
                continue
            total = 0
            for i, v in enumerate(vectors):
                if marker >> i & 1:
                    total ^= v
            assert total == x


class TestPointSet:
    def test_membership_and_iteration_order(self):
        s = pset(4, 9, 1, 4)
        assert [p.mask for p in s] == [1, 4, 9]
        assert Point(9, 4) in s
        assert 4 in s
        assert Point(9, 5) not in s

    def test_duplicates_collapse(self):
        assert len(PointSet(4, [3, 3, 5])) == 2

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            PointSet(3, [8])

    def test_refuses_assignment(self):
        s = pset(4, 1, 2)
        with pytest.raises(AttributeError):
            s.n = 5
        with pytest.raises(AttributeError):
            s.masks = frozenset({3})

    def test_order_of_construction_is_forgotten(self):
        a, b = PointSet(5, [9, 1, 30, 4]), PointSet(5, (4, 30, 1, 9, 9))
        assert a == b
        assert hash(a) == hash(b)
        assert a != PointSet(6, [9, 1, 30, 4])

    def test_not_equal_to_a_bare_frozenset(self):
        assert pset(4, 1, 2) != frozenset({1, 2})

    def test_point_validation(self):
        with pytest.raises(ValueError):
            Point(4, 2)
        with pytest.raises(ValueError):
            Point(0, 17)


@given(point_sets(min_size=1, max_size=7))
@settings(max_examples=60)
def test_odd_sums_stay_in_span(s):
    points = list(s)
    if len(points) % 2 == 0:
        points = points[:-1]
    assert xor_sum(points) in affine_span(s)


@given(st.lists(st.integers(0, (1 << 14) - 1), max_size=12), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_transpose_matches_bitwise_reference(vectors, n):
    # bits at or above n are ignored, as in the bit-by-bit reference
    assert _transpose(vectors, n) == transpose_oracle(vectors, n)
