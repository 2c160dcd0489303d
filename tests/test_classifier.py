import math
from itertools import combinations

import pytest

from capclass import classifier
from capclass.capset import is_cap
from capclass.classifier import (
    ClaimResult,
    _transvections,
    brute_force_class_counts,
    check_exchange_contract,
    check_higherdim_pair,
    check_invariance_fuzz,
    check_size_bounds,
    check_template_validity,
    classify,
    max_cap_size,
    tait_won_bounds,
    verify_paper,
)
from capclass.equivalence import are_equivalent, canonical_form
from capclass.errors import DimensionOverflowError, TooLargeError

from oracles import has_quad, max_cap_size_exhaustive, no_thirteen_cap_structure, thirteen_cap_pair_survey

CLAIM_IDS = [
    "template-validity",
    "dim7-classification-counts",
    "dim6-classification-counts",
    "completeness-witnesses",
    "equivalence-structure",
    "census-theorems",
    "exchange-contract",
    "lemma-suite",
    "invariance-fuzz",
    "higher-dimension-pair",
    "size-bounds",
    "toy-scale-oracle",
]


class TestClassify:
    def test_dim3_counts(self):
        assert classify(3, 6).counts() == {4: 1, 5: 0}

    def test_dim4_counts(self):
        assert classify(4, 8).counts() == {5: 1, 6: 1, 7: 0}

    def test_rows_hold_valid_sorted_representatives(self):
        table = classify(4, 8)
        for size, entries in table.rows.items():
            forms = [e.form for e in entries]
            assert forms == sorted(forms)
            for e in entries:
                assert e.cap.size == size
                assert e.cap.dim == 4
                assert is_cap(e.cap.points)
                assert canonical_form(e.cap) == e.form

    def test_representatives_are_pairwise_inequivalent(self):
        table = classify(4, 8)
        reps = [e.cap for size in table.rows for e in table.entries(size)]
        for a, b in combinations(reps, 2):
            assert not are_equivalent(a, b)

    def test_monotone_closure(self):
        # every larger representative contains a full-dimensional sub-cap
        # equivalent to some representative one size down
        from capclass.capset import Cap
        from capclass.gf2 import PointSet

        table = classify(4, 8)
        for size in (6,):
            smaller_forms = {e.form for e in table.entries(size - 1)}
            for e in table.entries(size):
                masks = e.cap.sorted_masks()
                hit = False
                for drop in range(len(masks)):
                    remaining = masks[:drop] + masks[drop + 1:]
                    sub = Cap(PointSet(4, remaining))
                    if sub.dim == 4 and canonical_form(sub) in smaller_forms:
                        hit = True
                        break
                assert hit

    def test_dim7_monotone_closure(self):
        # every representative one size up contains a same-dimension sub-cap
        # from one of the previous size's classes
        from capclass.capset import Cap
        from capclass.gf2 import PointSet

        table = classify(7, 13)
        for size in (9, 10, 11, 12):
            smaller_forms = {e.form for e in table.entries(size - 1)}
            for e in table.entries(size):
                masks = e.cap.sorted_masks()
                subs = []
                for drop in range(len(masks)):
                    sub = Cap(PointSet(7, masks[:drop] + masks[drop + 1:]))
                    if sub.dim == 7:
                        subs.append(canonical_form(sub))
                assert smaller_forms & set(subs)

    def test_dimension_guard(self):
        with pytest.raises(DimensionOverflowError):
            classify(9, 10)

    @pytest.mark.parametrize("max_size", [0, -3, 3, 7])
    def test_size_guard(self, max_size):
        with pytest.raises(ValueError):
            classify(7, max_size)

    def test_desk_scale_guard(self):
        with pytest.raises(TooLargeError):
            classify(4, 15)


class TestBruteForceOracle:
    def test_toy_dimensions_agree(self):
        for dim in (1, 2, 3, 4):
            oracle = brute_force_class_counts(dim)
            cls = {s: c for s, c in classify(dim, 14).counts().items() if c}
            assert cls == oracle

    def test_guard(self):
        with pytest.raises(TooLargeError):
            brute_force_class_counts(5)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_is_refused(self, dim):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            brute_force_class_counts(dim)

    def test_transvections_generate_the_general_linear_group(self):
        # a matrix is its tuple of columns, and a transvection acts on each
        # column; the closure of the identity is all of GL(dim,2)
        for dim, order in zip((1, 2, 3, 4), (1, 6, 168, 20160)):
            moves = _transvections(dim)
            assert len(moves) == dim * (dim - 1)
            group = {tuple(1 << j for j in range(dim))}
            frontier = list(group)
            while frontier:
                cols = frontier.pop()
                for bit, e in moves:
                    image = tuple(x ^ e if x & bit else x for x in cols)
                    if image not in group:
                        group.add(image)
                        frontier.append(image)
            assert len(group) == order, dim


class TestMaxCapSize:
    def test_dim3_matches_exhaustive_subset_scan(self):
        assert max_cap_size_exhaustive(3) == 4
        assert max_cap_size(3) == 4

    def test_any_five_points_of_the_cube_contain_a_quad(self):
        for subset in combinations(range(8), 5):
            assert has_quad(list(subset))

    def test_overflow_guard(self):
        with pytest.raises(DimensionOverflowError):
            max_cap_size(9)

    def test_a_cut_classification_gives_no_maximum(self, monkeypatch):
        # the largest caps of AG(4,2) have 6 points: a table cut at 6 only
        # bounds the maximum below, one cut at 7 reaches an empty row
        monkeypatch.setattr(classifier, "_SIZE_LIMIT", 6)
        with pytest.raises(TooLargeError, match="at least"):
            max_cap_size(4)
        monkeypatch.setattr(classifier, "_SIZE_LIMIT", 7)
        assert max_cap_size(4) == 6


class TestTaitWonBounds:
    def test_dimension_seven_is_exact(self):
        lo, hi = tait_won_bounds(7)
        assert lo == pytest.approx(8.0, abs=1e-9)
        assert hi == pytest.approx(17.0, abs=1e-9)

    def test_dimension_six(self):
        lo, hi = tait_won_bounds(6)
        assert lo == pytest.approx(8 / math.sqrt(2), abs=1e-9)
        assert hi == pytest.approx(1 + math.sqrt(2) * 8, abs=1e-9)
        assert lo <= 9 <= hi


class TestThirteenCapSurvey:
    def test_survivors_have_exactly_two_disjoint_small_pairs(self):
        pair_keys = list(combinations(range(5), 2))
        survivors = [row for row in thirteen_cap_pair_survey() if row["survives_lemmas"]]
        assert len(survivors) == 15  # unordered pairs of disjoint index pairs
        for row in survivors:
            twos = [pair_keys[i] for i, v in enumerate(row["pairs"]) if v == 2]
            assert len(twos) == 2
            assert not set(twos[0]) & set(twos[1])

    def test_inclusion_exclusion_contradicts_containment(self):
        for row in thirteen_cap_pair_survey():
            if row["survives_lemmas"]:
                assert row["five_fold_by_inclusion_exclusion"] == 1
                assert row["five_fold_upper_bound"] == 0
                assert not row["consistent"]
        assert no_thirteen_cap_structure()


class TestClaims:
    def test_template_validity_claim(self):
        assert check_template_validity().passed

    def test_higherdim_claim(self):
        assert check_higherdim_pair().passed

    def test_exchange_claim_small(self):
        table7 = classify(7, 13)
        res = check_exchange_contract(table7, trials=200)
        assert res.passed
        assert res.witness["trials"] == 200

    def test_negative_trial_counts_are_rejected(self):
        with pytest.raises(ValueError):
            check_exchange_contract(classify(7, 13), trials=-5)
        with pytest.raises(ValueError):
            check_invariance_fuzz(-1)
        with pytest.raises(ValueError):
            verify_paper(exchange_trials=-1)

    @pytest.mark.parametrize("name", ("invariance_trials", "exchange_trials"))
    def test_negative_trial_counts_are_rejected_before_any_work(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("classify ran before the trial counts were checked")

        monkeypatch.setattr(classifier, "classify", refuse)
        with pytest.raises(ValueError, match=f"{name} must be at least 0"):
            verify_paper(**{name: -1})

    def test_directly_called_check_is_a_timed_claim(self):
        # tracing wraps each check_* global and names its phase by the claim id
        res = check_size_bounds(classify(7, 13), classify(6, 10))
        assert isinstance(res, ClaimResult)
        assert res.claim_id == "size-bounds"
        assert res.passed
        assert isinstance(res.elapsed_s, float) and res.elapsed_s >= 0.0

    def test_verify_paper_calls_the_checks_through_module_globals(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = classifier.check_dim6_counts
        monkeypatch.setattr(classifier, "check_dim6_counts", spy)
        report = verify_paper(invariance_trials=0, exchange_trials=0)
        assert len(calls) == 1
        assert report.claims[2].claim_id == "dim6-classification-counts"

    def test_verify_paper_report_shape(self):
        report = verify_paper(invariance_trials=3, exchange_trials=30)
        assert [c.claim_id for c in report.claims] == CLAIM_IDS
        assert report.all_passed
        payload = report.to_dict()
        assert payload["schema"] == "report v1"
        assert len(payload["claims"]) == 12
