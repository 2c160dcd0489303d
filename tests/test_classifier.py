import math
from dataclasses import replace
from itertools import combinations

import pytest

from capclass import classifier, templates
from capclass.capset import Cap, is_cap
from capclass.classifier import (
    _DIM7_CLASSES,
    ClaimResult,
    ClassTable,
    _lemma_violations,
    _transvections,
    brute_force_class_counts,
    check_census_theorems,
    check_completeness,
    check_equivalence_structure,
    check_exchange_contract,
    check_higherdim_pair,
    check_invariance_fuzz,
    check_lemma_suite,
    check_size_bounds,
    check_template_validity,
    check_toy_oracle,
    classify,
    max_cap_size,
    tait_won_bounds,
    verify_paper,
)
from capclass.cli import run_command
from capclass.decomp import BasisDecomposition, ExtendedType, decompose
from capclass.equivalence import are_equivalent, canonical_form
from capclass.errors import InvariantError, TooLargeError
from capclass.gf2 import AffineMap, PointSet

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

    def test_dim12_counts(self):
        assert classify(12, 14).counts() == {13: 1, 14: 5}

    def test_dim13_holds_only_its_frame(self):
        table = classify(13, 14)
        assert table.counts() == {14: 1}
        (entry,) = table.entries(14)
        assert entry.cap.sorted_masks() == (0,) + tuple(1 << i for i in range(13))
        assert not entry.complete

    def test_dimension_guard(self):
        with pytest.raises(TooLargeError):
            classify(14, 15)

    @pytest.mark.parametrize("max_size", [0, -3, 3, 7])
    def test_size_guard(self, max_size):
        with pytest.raises(ValueError):
            classify(7, max_size)

    def test_desk_scale_guard(self):
        with pytest.raises(TooLargeError):
            classify(4, 15)

    def test_cold_classify_keeps_every_memo_within_its_traffic(self, monkeypatch):
        from capclass import decomp, equivalence

        for module, name in ((decomp, "_TYPE_CACHE"), (equivalence, "_NORM_FORM_CACHE"), (equivalence, "_RAW_FORM_CACHE")):
            monkeypatch.setattr(module, name, {})
        decomp._basis_scan.cache_clear()
        classify(8, 14)
        # measured: 278 class keys typed, 13 714 form-memo entries
        assert len(decomp._TYPE_CACHE) <= 278
        assert len(equivalence._NORM_FORM_CACHE) <= 14_000
        assert not equivalence._RAW_FORM_CACHE
        assert decomp._basis_scan.cache_info().currsize <= 1


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

    # caps reach 14 points from dimension 9 on; from 14 on, classify refuses
    @pytest.mark.parametrize("dim, message", [(9, "reach the size limit"), (13, "reach the size limit"), (14, "desk-scale")])
    def test_overflow_guard(self, dim, message):
        with pytest.raises(TooLargeError, match=message):
            max_cap_size(dim)

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

    def test_dim7_classes_partition_the_templates_by_size(self):
        placed = [(size, label) for size, classes in _DIM7_CLASSES.items() for labels in classes for label in labels]
        assert sorted(label for _, label in placed) == sorted(templates.LABELS)
        sizes = {t.label: t.size for t in templates.TEMPLATES}
        assert all(sizes[label] == size for size, label in placed)

    @staticmethod
    def with_first_entry(table, size, **changes):
        """The table with its first class of this size changed."""
        first, *rest = table.entries(size)
        return ClassTable(table.dim, {**table.rows, size: (replace(first, **changes), *rest)})

    def test_completeness_claim_fails_when_a_nine_cap_is_complete(self):
        table7 = classify(7, 13)
        assert check_completeness(table7).passed
        assert not check_completeness(self.with_first_entry(table7, 9, complete=True)).passed

    def test_census_claim_reads_the_whole_eleven_cap_census(self):
        table7 = classify(7, 13)
        assert check_census_theorems(table7).passed
        (entry,) = table7.entries(11)
        census = entry.census - {ExtendedType((7, 5, 5), (4, 4, 3))}
        assert len(census) == 2
        assert not check_census_theorems(self.with_first_entry(table7, 11, census=census)).passed

    def test_completeness_claim_fails_when_the_twelve_cap_is_incomplete(self):
        table7 = classify(7, 13)
        res = check_completeness(self.with_first_entry(table7, 12, complete=False))
        assert res.witness["problems"] == ["12-cap completeness"]

    @pytest.mark.parametrize("copies", (0, 2), ids=("removed", "listed-twice"))
    def test_completeness_claim_fails_unless_the_twelve_cap_class_is_listed_once(self, copies):
        table7 = classify(7, 13)
        res = check_completeness(ClassTable(7, {**table7.rows, 12: table7.entries(12) * copies}))
        assert not res.passed
        assert res.witness["problems"][0] == "size-12 classes"

    def test_lemma_suite_fails_on_a_table_with_no_classes(self):
        res = check_lemma_suite(ClassTable(7, {}))
        assert not res.passed
        assert res.witness["caps_checked"] == 0
        assert res.witness["violations"][0] == "size 8: classes differ from the classification"

    def test_exchange_claim_refuses_a_table_with_nothing_to_draw(self):
        with pytest.raises(InvariantError, match="no 9- to 12-cap"):
            check_exchange_contract(ClassTable(7, {}), trials=5)
        assert check_exchange_contract(ClassTable(7, {}), trials=0).passed

    @pytest.mark.parametrize("rows", ({}, {9: ()}), ids=("no-rows", "empty-row"))
    def test_size_bounds_claim_refuses_a_table_with_no_cap(self, capsys, rows):
        with pytest.raises(InvariantError, match="holds no cap"):
            ClassTable(7, rows).max_size()
        assert run_command(lambda: check_size_bounds(ClassTable(7, rows), classify(6, 10))) == 1
        assert capsys.readouterr().err == "error: internal check failed: the dim-7 table holds no cap to take a maximum over\n"

    def test_completeness_claim_fails_without_extension_witnesses(self, monkeypatch):
        table7 = classify(7, 13)  # classify itself reads extension_candidates
        monkeypatch.setattr(classifier, "extension_candidates", lambda cap: PointSet(cap.n))
        problems = check_completeness(table7).witness["problems"]
        assert "12-cap completeness" not in problems
        assert "9-cap representative 1 should be extendable" in problems
        assert problems[-3:] == [f"extension witness for {label}" for label in ("T10_55_2", "T10_55_3", "T11_555_332")]

    @pytest.mark.parametrize("patches, problems", [
        ({"find_isomorphism": lambda a, b: None}, 7),
        ({"verify_map": lambda t, a, b: False}, 7),
        ({"find_isomorphism": lambda a, b: AffineMap.identity(7), "verify_map": lambda t, a, b: True}, 1),
    ])
    def test_equivalence_claim_fails_on_a_missing_map_or_a_merged_class(self, monkeypatch, patches, problems):
        for name, fake in patches.items():
            monkeypatch.setattr(classifier, name, fake)
        res = check_equivalence_structure()
        assert not res.passed
        assert len(res.witness["problems"]) == problems
        assert res.witness["ten_cap_classes_distinct"] == (problems == 7)

    def test_exchange_claim_counts_a_failed_exchange(self, monkeypatch):
        # only the first call fails: the worked examples after the trials call exchange_basis unguarded
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise InvariantError("planted")
            return original(*args)

        original = classifier.exchange_basis
        monkeypatch.setattr(classifier, "exchange_basis", fail_first)
        res = check_exchange_contract(classify(7, 13), trials=1)
        assert not res.passed
        assert res.witness["failures"] == 1
        assert len(calls) == 3

    def test_every_lemma_fails_on_the_thirteen_caps_of_dimension_8(self):
        laws = (
            "support size outside {5,7}",
            "two size-7 supports",
            "5-5 intersection",
            "7-5 intersection",
            "triple union",
            "triple intersection identity",
            "two 2-intersections in a triple",
            "all-3 quadruple",
            "three 2-intersections in a quadruple",
            "overlapping 2-pairs",
            "quadruple intersection",
        )
        table8 = classify(8, 13)
        entries = table8.entries(13)
        assert len(entries) == 5
        violations = [v for entry in entries for v in _lemma_violations(entry.cap)]
        assert all(any(v.startswith(law) for v in violations) for law in laws)
        assert not check_lemma_suite(table8).passed

    @pytest.mark.parametrize("image, kinds", [
        (PointSet(7, (0, 1, 2, 3)), {"image is not a cap"}),
        (templates.instantiate("T12_7555").points, {"canonical form changed", "completeness changed", "census changed"}),
    ])
    def test_invariance_claim_fails_when_an_image_differs(self, monkeypatch, image, kinds):
        monkeypatch.setattr(classifier, "apply_affine_map", lambda t, points: image)
        res = check_invariance_fuzz(1)
        assert not res.passed
        assert kinds <= {v.split(": ", 1)[1] for v in res.witness["violations"]}

    def test_invariance_fuzz_builds_each_map_once_for_every_template(self, monkeypatch):
        # one map alive at a time: each seed's map is built once, then serves all twelve templates
        events, build, apply = [], classifier.random_invertible_affine, classifier.apply_affine_map
        monkeypatch.setattr(classifier, "random_invertible_affine", lambda n, seed: events.append(seed) or build(n, seed))
        monkeypatch.setattr(classifier, "apply_affine_map", lambda t, points: events.append(t) or apply(t, points))
        assert check_invariance_fuzz(3).passed
        assert len(templates.TEMPLATES) == 12
        assert events == [e for seed in range(3) for e in [seed] + [build(7, seed)] * 12]

    def test_toy_oracle_claim_fails_on_a_count_mismatch(self, monkeypatch):
        original = classifier.brute_force_class_counts
        monkeypatch.setattr(classifier, "brute_force_class_counts", lambda dim: {**original(dim), dim + 1: 2})
        res = check_toy_oracle()
        assert not res.passed
        assert res.witness["mismatches"] == [f"dim {d} size {d + 1}: classify 1 vs oracle 2" for d in (1, 2, 3, 4)]

    def test_exchange_pool_matches_decompose_on_every_basis(self, monkeypatch):
        # the pool's decompositions come from _every_basis's supports; decompose
        # re-derives each from its basis alone
        table7 = classify(7, 13)
        pool = []

        def recorded(*fields):
            pool.append(BasisDecomposition(*fields))
            return pool[-1]

        monkeypatch.setattr(classifier, "BasisDecomposition", recorded)
        assert check_exchange_contract(table7, trials=0).passed
        assert len(pool) == len({(dec.points, dec.basis) for dec in pool}) == 489
        caps = {entry.cap.points for size in (9, 10, 11, 12) for entry in table7.entries(size)}
        assert {dec.points for dec in pool} == caps
        for dec in pool:
            assert dec == decompose(Cap(dec.points), dec.basis)

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
