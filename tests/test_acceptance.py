"""Acceptance suite: every classification claim at its stated tolerance.

Each criterion runs as one test that prints a single pass/fail line
(visible with ``pytest -s``).  Time limits are asserted where stated.
Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import pytest

from capclass.capset import _is_cap_exhaustive, extension_candidates, quad_closure_1
from capclass.classifier import (
    check_census_theorems,
    check_completeness,
    check_dim6_counts,
    check_dim7_counts,
    check_equivalence_structure,
    check_higherdim_pair,
    check_lemma_suite,
    check_size_bounds,
    check_template_validity,
    check_toy_oracle,
    classify,
    tait_won_bounds,
)
from capclass.decomp import ExtendedType, decompose, extended_type
from capclass.equivalence import find_isomorphism, verify_map
from capclass.gf2 import affine_span
from capclass import templates


def report(name, passed):
    print(f"{'PASS' if passed else 'FAIL'}  {name}")
    assert passed, name


@pytest.fixture(scope="module")
def table7():
    started = time.perf_counter()
    table = classify(7, 13)
    return table, time.perf_counter() - started


@pytest.fixture(scope="module")
def default_report(pin_run):
    """The claims of the default ``verify-paper --json`` report by id, and
    the wall time of its run: the run whose digest is pinned, made once
    per session, so its 1000 fuzz maps per template run once."""
    done, elapsed = pin_run("verify-paper --json")
    assert done.returncode == 0, done.stderr
    return {claim["id"]: claim for claim in json.loads(done.stdout)["claims"]}, elapsed


@pytest.fixture(scope="module")
def table6():
    started = time.perf_counter()
    table = classify(6, 10)
    return table, time.perf_counter() - started


def test_criterion_01_template_validity():
    started = time.perf_counter()
    result = check_template_validity()
    elapsed = time.perf_counter() - started
    report("criterion 1: template validity (exact, < 1 s)", result.passed and elapsed < 1.0)


def test_criterion_02_dim7_classification(table7):
    table, elapsed = table7
    result = check_dim7_counts(table)
    ok = result.passed and elapsed < 60.0
    report(f"criterion 2: dim-7 counts {table.counts()} in {elapsed:.2f}s (< 60 s)", ok)


def test_criterion_03_dim6_classification(table6):
    table, elapsed = table6
    result = check_dim6_counts(table)
    ok = result.passed and elapsed < 10.0
    report(f"criterion 3: dim-6 counts {table.counts()} in {elapsed:.2f}s (< 10 s)", ok)


def test_criterion_04_completeness(table7):
    table, _ = table7
    result = check_completeness(table)
    # spell out the named facts in addition to the claim bundle
    twelve = table.entries(12)[0].cap
    ok = (
        result.passed
        and len(quad_closure_1(twelve.points)) == 128 == len(affine_span(twelve.points))
        and len(extension_candidates(twelve)) == 0
        and 57 in extension_candidates(templates.instantiate("T10_55_2"))
        and 87 in extension_candidates(templates.instantiate("T11_555_332"))
    )
    report("criterion 4: completeness and extension witnesses (exact)", ok)


def test_criterion_05_equivalence_structure():
    result = check_equivalence_structure()
    ok = result.passed
    # independent spot check: shipped witnesses verify
    for a, b in (("T10_75_4", "T10_55_2"), ("T12_7555", "T12_5555_233332")):
        ca, cb = templates.instantiate(a), templates.instantiate(b)
        t = find_isomorphism(ca, cb)
        ok = ok and t is not None and verify_map(t, ca, cb)
    report("criterion 5: template equivalence structure with verified maps", ok)


def test_criterion_06_census_theorems(table7):
    table, _ = table7
    result = check_census_theorems(table)
    report("criterion 6: forced basis types at sizes 10, 11, 12", result.passed)


def test_criterion_07_exchange_contract(default_report):
    claims, _ = default_report
    claim = claims["exchange-contract"]
    ok = (
        claim["passed"]
        and claim["witness"]["trials"] == 10000
        and claim["witness"]["failures"] == 0
        and claim["witness"]["worked_example"] == {
            "before": "7-5-5-(4,4,3)",
            "after": "5-5-5-(2,3,3)",
        }
    )
    report("criterion 7: 10,000 random exchanges match closed forms (exact)", ok)


def test_criterion_08_lemma_suite(table7):
    table, _ = table7
    result = check_lemma_suite(table)
    ok = result.passed and result.witness["violation_count"] == 0
    report("criterion 8: per-basis structural laws, zero violations", ok)


def test_criterion_09_invariance_fuzz(default_report):
    claims, elapsed = default_report
    claim = claims["invariance-fuzz"]
    witness = claim["witness"]
    ok = (
        claim["passed"]
        and witness["templates"] == 12
        and witness["maps_per_template"] == 1000
        and witness["violation_count"] == 0
        and elapsed < 60.0
    )
    report(f"criterion 9: 1000 affine maps per template, in a default report of {elapsed:.2f}s (< 60 s)", ok)


def test_criterion_10_higherdim_pair():
    result = check_higherdim_pair()
    c1, c2 = templates.higherdim_pair()
    basis = templates.higherdim_generating_basis()
    want = ExtendedType((5, 5, 5), (3, 3, 3))
    ok = (
        result.passed
        and extended_type(decompose(c1, basis)) == want
        and extended_type(decompose(c2, basis)) == want
        and find_isomorphism(c1, c2) is None
    )
    report("criterion 10: equal types, inequivalent caps one dimension up", ok)


def test_criterion_11_bounds(table7, table6):
    t7, _ = table7
    t6, _ = table6
    result = check_size_bounds(t7, t6)
    lo7, hi7 = tait_won_bounds(7)
    ok = (
        result.passed
        and abs(lo7 - 8.0) < 1e-9
        and abs(hi7 - 17.0) < 1e-9
        and lo7 <= 12 <= hi7
    )
    report("criterion 11: size bounds exact to 1e-9 and bracketing", ok)


def test_criterion_12_toy_scale_oracle():
    started = time.perf_counter()
    result = check_toy_oracle()
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 30.0
    report(f"criterion 12: toy-dimension oracle agreement in {elapsed:.2f}s (< 30 s)", ok)


def test_all_templates_really_are_caps():
    # cheap final sweep tying criteria 1 and 4 to the raw definitions
    for tid in templates.TEMPLATES:
        cap = templates.instantiate(tid.label)
        assert _is_cap_exhaustive(cap.sorted_masks())
