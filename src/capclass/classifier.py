"""Classification of caps by size, bound checks, and the verification report.

``classify`` generates level by level with isomorph rejection by
canonical form: it seeds each dimension with the affine frame (the
unique class of independent (dim+1)-sets), extends one representative
per class by every admissible point, and keeps the first cap of each
canonical form, so exactly one representative per affine-equivalence
class survives.  ``verify_paper`` re-derives the full catalogue of
classification claims and returns a machine-readable report.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .capset import Cap, _is_cap_exhaustive, extension_candidates, is_complete, quad_closure_1
from .decomp import (
    _DESK_LIMIT,
    BasisDecomposition,
    ExtendedType,
    _every_basis,
    _raw_type,
    decompose,
    exchange_basis,
    extended_type,
    type_census,
)
from .equivalence import _SIZE_LIMIT, CanonicalForm, canonical_form, find_isomorphism, verify_map
from .errors import InvariantError, NotACapError, TooLargeError
from .gf2 import (
    Point,
    PointSet,
    _affine_rank,
    _columns_of,
    affine_span,
    apply_affine_map,
    random_invertible_affine,
)
from . import templates

# brute_force_class_counts enumerates up to this dimension; the toy-scale claim checks each one
_MAX_BRUTE_FORCE_DIM = 4

DEFAULT_INVARIANCE_TRIALS = 1000
DEFAULT_EXCHANGE_TRIALS = 10000
DEFAULT_EXCHANGE_SEED = 12345


@dataclass(frozen=True)
class ClassEntry:
    """One affine-equivalence class: representative plus its summary data."""

    cap: Cap
    form: CanonicalForm
    census: frozenset[ExtendedType] | None
    complete: bool


@dataclass(frozen=True)
class ClassTable:
    """Classes of full-dimensional caps in AG(dim,2), keyed by size."""

    dim: int
    rows: Mapping[int, tuple[ClassEntry, ...]]

    def counts(self) -> dict[int, int]:
        return {size: len(entries) for size, entries in self.rows.items()}

    def entries(self, size: int) -> tuple[ClassEntry, ...]:
        return self.rows.get(size, ())

    def max_size(self) -> int:
        nonempty = [size for size, entries in self.rows.items() if entries]
        if not nonempty:
            raise InvariantError(f"the dim-{self.dim} table holds no cap to take a maximum over")
        return max(nonempty)


def _census(cap: Cap) -> frozenset[ExtendedType] | None:
    """The cap's type census, or None above ``_DESK_LIMIT`` points, the limit of type_census."""
    return type_census(cap) if cap.size <= _DESK_LIMIT else None


def _make_entry(cap: Cap, form: CanonicalForm) -> ClassEntry:
    return ClassEntry(cap, form, _census(cap), is_complete(cap))


def classify(dim: int, max_size: int) -> ClassTable:
    """Classify the full-dimensional caps of AG(dim,2) up to affine equivalence.

    Each level extends one representative per class of the level below
    and keeps the first cap of each canonical form (isomorph rejection by
    canonical form).  Rows run from size dim+1 upward, so max_size must
    exceed dim; generation stops at the first size with no caps (kept as
    an explicit empty row) or at max_size.  Output is deterministic: candidates are
    tried in ascending mask order and each row is sorted by canonical form.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    # max_size must exceed dim, so the size limit bounds the dimension too
    if max(dim + 1, max_size) > _SIZE_LIMIT:
        raise TooLargeError(f"classification is desk-scale: dim < max_size <= {_SIZE_LIMIT}")
    if max_size <= dim:
        raise ValueError(f"max_size must exceed dim, got {max_size} <= {dim}")

    frame = Cap(PointSet(dim, (0,) + tuple(1 << i for i in range(dim))))
    rows: dict[int, tuple[ClassEntry, ...]] = {}
    current: dict[CanonicalForm, Cap] = {canonical_form(frame): frame}
    rows[dim + 1] = tuple(_make_entry(cap, form) for form, cap in sorted(current.items()))

    size = dim + 2
    while size <= max_size and current:
        found: dict[CanonicalForm, Cap] = {}
        for form in sorted(current):
            parent = current[form]
            base = parent.sorted_masks()
            for z in extension_candidates(parent).sorted_masks():
                cap = Cap(PointSet(dim, base + (z,)))
                found.setdefault(canonical_form(cap), cap)
        rows[size] = tuple(_make_entry(cap, form) for form, cap in sorted(found.items()))
        current = found
        size += 1
    return ClassTable(dim, rows)


def max_cap_size(dim: int) -> int:
    """Largest size of a cap in AG(dim,2); TooLargeError when caps reach
    ``_SIZE_LIMIT`` points, where the classification is cut, as they do in
    every dimension above 8."""
    table = classify(dim, _SIZE_LIMIT)
    if table.entries(_SIZE_LIMIT):
        raise TooLargeError(f"caps of AG({dim},2) reach the size limit {_SIZE_LIMIT}; the maximum is at least that")
    return table.max_size()


def tait_won_bounds(n: int) -> tuple[float, float]:
    """Closed-form lower and upper bounds on the maximum cap size in AG(n,2)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    half = 2.0 ** (n / 2.0)
    return half / math.sqrt(2.0), 1.0 + math.sqrt(2.0) * half


# ---------------------------------------------------------------------------
# Independent brute-force oracle (toy dimensions)


def _transvections(dim: int) -> list[tuple[int, int]]:
    """The elementary transvections x -> x ^ x_i e_j (i != j) as (bit i, e_j);
    they generate GL(dim,2)."""
    return [(1 << i, 1 << j) for i in range(dim) for j in range(dim) if i != j]


def brute_force_class_counts(dim: int) -> dict[int, int]:
    """Class counts by exhaustive enumeration, independent of ``classify``.

    Enumerates every cap through 0 spanning AG(dim,2) directly from the
    definition (pairwise XOR collisions) and groups them by orbit under
    the full affine group: translations, then the transvections that
    generate GL(dim,2).  Only sensible for dim <= ``_MAX_BRUTE_FORCE_DIM``.
    """
    if dim > _MAX_BRUTE_FORCE_DIM:
        raise TooLargeError(f"brute-force classification is limited to dim <= {_MAX_BRUTE_FORCE_DIM}")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    space = 1 << dim
    caps_by_size: dict[int, list[tuple[int, ...]]] = {}

    def dfs(cap: list[int], pair_xors: set[int], start: int) -> None:
        if len(cap) >= dim + 1 and _affine_rank(cap) == dim:
            caps_by_size.setdefault(len(cap), []).append(tuple(cap))
        for z in range(start, space):
            fresh = {z ^ m for m in cap}
            if fresh & pair_xors:
                continue
            dfs(cap + [z], pair_xors | fresh, z + 1)

    dfs([0], set(), 1)

    moves = _transvections(dim)
    seen: set[frozenset[int]] = set()
    counts: dict[int, int] = {}
    for size in sorted(caps_by_size):
        for cap in caps_by_size[size]:
            if frozenset(cap) in seen:
                continue
            counts[size] = counts.get(size, 0) + 1
            # the orbit's caps through 0: the cap's translates, closed under the generators
            frontier = [frozenset(q ^ p for q in cap) for p in cap]
            seen.update(frontier)
            while frontier:
                pts = frontier.pop()
                for bit, e in moves:
                    image = frozenset(x ^ e if x & bit else x for x in pts)
                    if image not in seen:
                        seen.add(image)
                        frontier.append(image)
    return counts


# ---------------------------------------------------------------------------
# Verification report


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one verification claim with its witness payload.

    ``elapsed_s`` is measurement metadata and stays out of the report
    payload so that identical runs serialize identically.
    """

    claim_id: str
    passed: bool
    witness: dict
    elapsed_s: float


@dataclass(frozen=True)
class VerificationReport:
    """All verification claims, each exactly once, with pass/fail status."""

    claims: tuple[ClaimResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "schema": "report v1",
            "all_passed": self.all_passed,
            "claims": [
                {"id": c.claim_id, "passed": c.passed, "witness": c.witness}
                for c in self.claims
            ],
        }


def _cap_payload(cap: Cap) -> dict:
    return {"n": cap.n, "points": list(cap.sorted_masks())}


def _map_payload(t) -> dict:
    return {
        "matrix": [Point(row, t.n).to_bits() for row in t.rows],
        "translation": Point(t.translation, t.n).to_bits(),
    }


def _census_payload(census: frozenset[ExtendedType] | None) -> list[str] | None:
    return None if census is None else sorted(str(t) for t in census)


def _claim(claim_id: str) -> Callable[[Callable[..., tuple[bool, dict]]], Callable[..., ClaimResult]]:
    """Turn a check body returning (passed, witness) into a timed claim of this id."""

    def decorate(body: Callable[..., tuple[bool, dict]]) -> Callable[..., ClaimResult]:
        @wraps(body)
        def check(*args, **kwargs) -> ClaimResult:
            started = time.perf_counter()
            passed, witness = body(*args, **kwargs)
            return ClaimResult(claim_id, passed, dict(witness), time.perf_counter() - started)

        return check

    return decorate


@_claim("template-validity")
def check_template_validity() -> tuple[bool, dict]:
    """Every template builds a cap of the stated size, dimension, and type."""
    failures = []
    details = {}
    for tid in templates.TEMPLATES:
        cap = templates.instantiate(tid.label)
        dec = decompose(cap, templates.generating_basis(tid.label))
        got = extended_type(dec)
        want = templates.expected_extended_type(tid.label)
        ok = (
            cap.size == tid.size
            and cap.dim == 7
            and _is_cap_exhaustive(cap.sorted_masks())
            and got == want
        )
        details[tid.label] = {
            "size": cap.size,
            "dim": cap.dim,
            "extended_type": str(got),
        }
        if not ok:
            failures.append(tid.label)
    return not failures, {"templates": details, "failures": failures}


def _counts_claim(claim_id: str, expected: dict[int, int]) -> Callable[[ClassTable], ClaimResult]:
    """A claim that a table has exactly the expected class count per size."""

    @_claim(claim_id)
    def check(table: ClassTable) -> tuple[bool, dict]:
        got = table.counts()
        return got == expected, {"expected": dict(expected), "got": got}

    return check


# The paper's classification of AG(7,2): per size, its classes, each given
# as the reference templates it holds.
_DIM7_CLASSES: dict[int, tuple[tuple[str, ...], ...]] = {
    8: (("INDEPENDENT8",),),
    9: (("R5",), ("R7",)),
    10: (("T10_75_4", "T10_55_2"), ("T10_55_3",)),
    11: (("T11_755_443", "T11_555_333", "T11_555_332"),),
    12: (("T12_7555", "T12_5555_233333", "T12_5555_233332"),),
    13: (),
}

check_dim7_counts = _counts_claim(
    "dim7-classification-counts", {size: len(classes) for size, classes in _DIM7_CLASSES.items()}
)
check_dim6_counts = _counts_claim("dim6-classification-counts", {7: 1, 8: 2, 9: 1, 10: 0})


def _class_mismatches(table7: ClassTable, sizes: Iterable[int]) -> list[int]:
    """The sizes whose row does not hold exactly the classes _DIM7_CLASSES
    lists for them, each once, compared by canonical form; a size it does
    not list holds no class."""
    return [
        size
        for size in sizes
        if sorted(entry.form for entry in table7.entries(size))
        != sorted(canonical_form(templates.instantiate(labels[0])) for labels in _DIM7_CLASSES.get(size, ()))
    ]


@_claim("completeness-witnesses")
def check_completeness(table7: ClassTable) -> tuple[bool, dict]:
    """Only the 12-caps are complete; smaller caps extend, with named witnesses.
    Each size from 8 to 12 must hold exactly its classes."""
    problems = [f"size-{size} classes" for size in _class_mismatches(table7, [s for s in _DIM7_CLASSES if s <= 12])]
    witness: dict = {}

    twelve = table7.entries(12)
    for entry in twelve:
        closure = quad_closure_1(entry.cap.points)
        span = affine_span(entry.cap.points)
        cands = extension_candidates(entry.cap)
        witness["twelve_cap"] = {
            "qc1_size": len(closure),
            "span_size": len(span),
            "extension_candidates": len(cands),
        }
        if not (entry.complete and len(closure) == 128 == len(span) and len(cands) == 0):
            problems.append("12-cap completeness")

    for size in [s for s in _DIM7_CLASSES if s < 12]:
        for i, entry in enumerate(table7.entries(size)):
            if entry.complete or len(extension_candidates(entry.cap)) == 0:
                problems.append(f"{size}-cap representative {i} should be extendable")

    named = [
        ("T10_55_2", (1, 2, 5, 6, 7)),
        ("T10_55_3", (1, 3, 6, 7, 8)),
        ("T11_555_332", (2, 3, 4, 6, 8)),
    ]
    for label, generators in named:
        point = templates._generator_mask(generators, templates.FRAME_MASKS)
        ok = point in extension_candidates(templates.instantiate(label))
        witness[f"witness_{label}"] = {"point": point, "admissible": ok}
        if not ok:
            problems.append(f"extension witness for {label}")
    return not problems, dict(witness, problems=problems)


@_claim("equivalence-structure")
def check_equivalence_structure() -> tuple[bool, dict]:
    """The template equivalences and non-equivalences, each with a checked map."""
    problems = []
    witness: dict = {"isomorphisms": {}}

    pairs = [pair for classes in _DIM7_CLASSES.values() for labels in classes for pair in combinations(labels, 2)]
    for a, b in pairs:
        ca, cb = templates.instantiate(a), templates.instantiate(b)
        t = find_isomorphism(ca, cb)
        if t is None or not verify_map(t, ca, cb):
            problems.append(f"{a} ~ {b}")
        else:
            witness["isomorphisms"][f"{a}->{b}"] = _map_payload(t)

    # find_isomorphism compares the two canonical forms before it builds a map
    distinct = find_isomorphism(*(templates.instantiate(labels[0]) for labels in _DIM7_CLASSES[10])) is None
    witness["ten_cap_classes_distinct"] = distinct
    if not distinct:
        problems.append("the two 10-cap classes must differ")
    return not problems, dict(witness, problems=problems)


@_claim("census-theorems")
def check_census_theorems(table7: ClassTable) -> tuple[bool, dict]:
    """Census facts at sizes 10, 11, and 12: each class's census is exactly the
    set of extended types of the templates it holds, and no other census occurs."""
    problems = []
    witness = {}
    for size in (10, 11, 12):
        got = [entry.census for entry in table7.entries(size)]
        want = {frozenset(map(templates.expected_extended_type, labels)) for labels in _DIM7_CLASSES[size]}
        if len(got) != len(want) or set(got) != want:
            problems.append(f"size-{size} censuses")
        witness[f"size{size}"] = [_census_payload(c) for c in got]
    return not problems, dict(witness, problems=problems)


def _require_trial_count(name: str, count: int) -> None:
    if count < 0:
        raise ValueError(f"{name} must be at least 0, got {count}")


@_claim("exchange-contract")
def check_exchange_contract(table7: ClassTable, trials: int = DEFAULT_EXCHANGE_TRIALS) -> tuple[bool, dict]:
    """Random exchanges match their closed-form support predictions."""
    _require_trial_count("trials", trials)
    rng = random.Random(DEFAULT_EXCHANGE_SEED)
    # per cap, per basis: the decomposition and its (basis position, dependent) moves
    pool = []
    for size in (9, 10, 11, 12):
        for entry in table7.entries(size):
            cap, masks = entry.cap, entry.cap.sorted_masks()
            points = tuple(Point(m, cap.n) for m in masks)
            moves = []
            for subset, sups in _every_basis(masks, cap.dim + 1):
                # the supports are those of the points outside the subset, ascending
                outside = [p for i, p in enumerate(points) if i not in subset]
                dec = BasisDecomposition(cap.points, tuple(points[i] for i in subset), tuple(zip(outside, sups)))
                # a basis point may go to a dependent holding it when at most
                # one other dependent holds it too
                holders = [sum(s >> pos & 1 for s in sups) for pos in range(len(subset))]
                valid = [(pos, i) for i, s in enumerate(sups) for pos in _columns_of(s) if holders[pos] <= 2]
                if not valid:
                    raise InvariantError(f"no exchange is admissible at basis {subset} of a {cap.size}-cap")
                moves.append((dec, valid))
            pool.append(moves)
    if trials and not pool:
        raise InvariantError("the table holds no 9- to 12-cap to draw exchanges from")
    failures = 0
    for _ in range(trials):
        bases = pool[rng.randrange(len(pool))]
        dec, valid = bases[rng.randrange(len(bases))]
        pos, i = valid[rng.randrange(len(valid))]
        try:
            exchange_basis(dec, dec.basis[pos], dec.dependents[i][0])
        except InvariantError:
            failures += 1

    # the worked example: the frame a1..a8 with dependents (1..7), (1,2,3,4,8)
    # and (1,2,5,6,8) has basis type 7-5-5-(4,4,3), and turns into
    # 5-5-5-(2,3,3) by swapping a3 with its second dependent
    frame = templates.FRAME_MASKS
    worked = ((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 8), (1, 2, 5, 6, 8))
    dec = decompose(templates._over_frame(frame, worked), templates._frame_points(frame))
    before = extended_type(dec)
    swapped = exchange_basis(dec, dec.basis[2], Point(templates._generator_mask(worked[1], frame), 7))
    after = extended_type(swapped)
    example_ok = before == ExtendedType((7, 5, 5), (4, 4, 3)) and after == ExtendedType(
        (5, 5, 5), (2, 3, 3)
    )

    ten = templates.instantiate("T10_75_4")
    dec10 = decompose(ten, templates.generating_basis("T10_75_4"))
    # a4 with the dependent (4,5,6,7,8)
    swapped10 = exchange_basis(dec10, dec10.basis[3], dec10.dependents[1][0])
    ten_ok = extended_type(swapped10) == ExtendedType((5, 5), (2,))

    passed = failures == 0 and example_ok and ten_ok
    witness = {
        "trials": trials,
        "failures": failures,
        "worked_example": {"before": str(before), "after": str(after)},
        "seven_five_exchange": str(extended_type(swapped10)),
    }
    return passed, witness


def _lemma_violations(cap: Cap) -> list[str]:
    """All per-basis structural laws for one cap; empty list means clean."""
    masks = cap.sorted_masks()
    out = []
    for subset, sups in _every_basis(masks, cap.dim + 1):
        sizes, pairs = _raw_type(sups)
        r = len(sups)
        inter = dict(zip(combinations(range(r), 2), pairs))
        if any(size not in (5, 7) for size in sizes):
            out.append(f"support size outside {{5,7}} at basis {subset}")
        if sizes.count(7) > 1:
            out.append(f"two size-7 supports at basis {subset}")
        for (i, j), p in inter.items():
            if sizes[i] == 5 and sizes[j] == 5 and p not in (2, 3):
                out.append(f"5-5 intersection {p} at basis {subset}")
            if {sizes[i], sizes[j]} == {5, 7} and p != 4:
                out.append(f"7-5 intersection {p} at basis {subset}")
        for i, j, k in combinations(range(r), 3):
            union = (sups[i] | sups[j] | sups[k]).bit_count()
            if union != 8:
                out.append(f"triple union {union} at basis {subset}")
            if sizes[i] == sizes[j] == sizes[k] == 5:
                pij, pik, pjk = inter[i, j], inter[i, k], inter[j, k]
                triple = (sups[i] & sups[j] & sups[k]).bit_count()
                if triple != pij + pik + pjk - 7:
                    out.append(f"triple intersection identity at basis {subset}")
                if sum(1 for v in (pij, pik, pjk) if v == 2) > 1:
                    out.append(f"two 2-intersections in a triple at basis {subset}")
        for quad in combinations(range(r), 4):
            if any(sizes[i] != 5 for i in quad):
                continue
            pair_twos = [pair for pair in combinations(quad, 2) if inter[pair] == 2]
            if not pair_twos:
                out.append(f"all-3 quadruple at basis {subset}")
                continue
            if len(pair_twos) > 2:
                out.append(f"three 2-intersections in a quadruple at basis {subset}")
            if len(pair_twos) == 2 and set(pair_twos[0]) & set(pair_twos[1]):
                out.append(f"overlapping 2-pairs at basis {subset}")
            four_fold = sups[quad[0]] & sups[quad[1]] & sups[quad[2]] & sups[quad[3]]
            expected = 1 if len(pair_twos) == 1 else 0
            if four_fold.bit_count() != expected:
                out.append(f"quadruple intersection {four_fold.bit_count()} at basis {subset}")
    return out


@_claim("lemma-suite")
def check_lemma_suite(table7: ClassTable) -> tuple[bool, dict]:
    """Structural laws hold for every basis of every dim-7 representative, and
    each size holds exactly its classes."""
    sizes = sorted(set(_DIM7_CLASSES) | set(table7.rows))
    violations = [f"size {size}: classes differ from the classification" for size in _class_mismatches(table7, sizes)]
    checked = 0
    for size in sizes:
        for entry in table7.entries(size):
            checked += 1
            violations += [f"size {size}: {v}" for v in _lemma_violations(entry.cap)]
    return not violations, {
        "caps_checked": checked,
        "violations": violations[:10],
        "violation_count": len(violations),
    }


@_claim("invariance-fuzz")
def check_invariance_fuzz(trials_per_template: int = DEFAULT_INVARIANCE_TRIALS) -> tuple[bool, dict]:
    """Canonical form, cap-ness, completeness, and census survive affine maps."""
    _require_trial_count("trials_per_template", trials_per_template)
    bases = []
    for tid in templates.TEMPLATES:
        cap = templates.instantiate(tid.label)
        bases.append((tid.label, cap, canonical_form(cap), is_complete(cap), type_census(cap)))
    violations = []
    # one map alive at a time, however many trials are asked for
    for seed in range(trials_per_template):
        t = random_invertible_affine(7, seed)
        for label, cap, base_form, base_complete, base_census in bases:
            try:
                image = Cap(apply_affine_map(t, cap.points))
            except NotACapError:
                violations.append(f"{label} seed {seed}: image is not a cap")
                continue
            if canonical_form(image) != base_form:
                violations.append(f"{label} seed {seed}: canonical form changed")
            if is_complete(image) != base_complete:
                violations.append(f"{label} seed {seed}: completeness changed")
            if type_census(image) != base_census:
                violations.append(f"{label} seed {seed}: census changed")
    return not violations, {
        "templates": len(templates.TEMPLATES),
        "maps_per_template": trials_per_template,
        "violations": violations[:10],
        "violation_count": len(violations),
    }


@_claim("higher-dimension-pair")
def check_higherdim_pair() -> tuple[bool, dict]:
    """Equal extended types need not mean equivalence one dimension up."""
    c1, c2 = templates.higherdim_pair()
    basis = templates.higherdim_generating_basis()
    t1 = extended_type(decompose(c1, basis))
    t2 = extended_type(decompose(c2, basis))
    want = ExtendedType((5, 5, 5), (3, 3, 3))
    equivalent = find_isomorphism(c1, c2) is not None
    passed = t1 == want and t2 == want and not equivalent
    witness = {
        "types": [str(t1), str(t2)],
        "equivalent": equivalent,
        "caps": [_cap_payload(c1), _cap_payload(c2)],
    }
    return passed, witness


@_claim("size-bounds")
def check_size_bounds(table7: ClassTable, table6: ClassTable) -> tuple[bool, dict]:
    """Closed-form bounds evaluate exactly and bracket the observed maxima."""
    lo7, hi7 = tait_won_bounds(7)
    lo6, hi6 = tait_won_bounds(6)
    max7 = table7.max_size()
    max6 = table6.max_size()
    tol = 1e-9
    passed = (
        abs(lo7 - 8.0) < tol
        and abs(hi7 - 17.0) < tol
        and lo7 <= max7 <= hi7
        and max7 == 12
        and lo6 <= max6 <= hi6
        and max6 == 9
    )
    witness = {
        "bounds7": [lo7, hi7],
        "bounds6": [lo6, hi6],
        "max7": max7,
        "max6": max6,
    }
    return passed, witness


@_claim("toy-scale-oracle")
def check_toy_oracle() -> tuple[bool, dict]:
    """classify agrees with the exhaustive orbit oracle in toy dimensions."""
    mismatches = []
    witness: dict = {}
    for dim in range(1, _MAX_BRUTE_FORCE_DIM + 1):
        oracle = brute_force_class_counts(dim)
        table = classify(dim, _SIZE_LIMIT)
        cls = table.counts()
        sizes = set(oracle) | {s for s, c in cls.items() if c}
        for size in sorted(sizes):
            if cls.get(size, 0) != oracle.get(size, 0):
                mismatches.append(f"dim {dim} size {size}: classify {cls.get(size, 0)} vs oracle {oracle.get(size, 0)}")
        witness[f"dim{dim}"] = {"classify": cls, "oracle": oracle}
    return not mismatches, dict(witness, mismatches=mismatches)


def verify_paper(
    *,
    invariance_trials: int = DEFAULT_INVARIANCE_TRIALS,
    exchange_trials: int = DEFAULT_EXCHANGE_TRIALS,
) -> VerificationReport:
    """Re-derive the classification and check every claim, returning the report."""
    _require_trial_count("invariance_trials", invariance_trials)
    _require_trial_count("exchange_trials", exchange_trials)
    table7 = classify(7, 13)
    table6 = classify(6, 10)
    claims = (
        check_template_validity(),
        check_dim7_counts(table7),
        check_dim6_counts(table6),
        check_completeness(table7),
        check_equivalence_structure(),
        check_census_theorems(table7),
        check_exchange_contract(table7, trials=exchange_trials),
        check_lemma_suite(table7),
        check_invariance_fuzz(trials_per_template=invariance_trials),
        check_higherdim_pair(),
        check_size_bounds(table7, table6),
        check_toy_oracle(),
    )
    return VerificationReport(claims)
