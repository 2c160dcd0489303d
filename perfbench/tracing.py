"""Spans and counters at capclass's module boundaries, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
capclass module that holds it, so calls from one module into another
(and the module's own calls through its globals) pass through the
wrapper.  No file of capclass changes.  Spans stay in memory as
``[name, start, end, parent]`` and are written out once, at the end.

A process hands its spans and counts on with ``harvest``; a parent
process merges those of its forked children with ``absorb``.
"""

from __future__ import annotations

import functools
import json
import sys
from math import comb
from pathlib import Path
from time import perf_counter

# (module, function, span name)
_TARGETS = (
    ("gf2", "apply_affine_map", "gf2.apply_affine_map"),
    ("gf2", "random_invertible_affine", "gf2.random_invertible_affine"),
    ("capset", "extension_candidates", "capset.extension_candidates"),
    ("capset", "is_complete", "capset.is_complete"),
    ("capset", "is_cap", "capset.is_cap"),
    ("decomp", "_basis_scan", "decomp.basis_scan"),
    ("decomp", "type_census", "decomp.type_census"),
    ("equivalence", "canonical_form", "equivalence.canonical_form"),
    ("equivalence", "find_isomorphism", "equivalence.find_isomorphism"),
    ("equivalence", "verify_map", "equivalence.verify_map"),
    ("classifier", "classify", "classifier.classify"),
    ("classifier", "verify_paper", "classifier.verify_paper"),
    ("cli", "main", "cli.main"),
)
# verify_paper's phases, each a module global of classifier
_CHECKS = (
    "check_template_validity",
    "check_dim7_counts",
    "check_dim6_counts",
    "check_completeness",
    "check_equivalence_structure",
    "check_census_theorems",
    "check_exchange_contract",
    "check_lemma_suite",
    "check_invariance_fuzz",
    "check_higherdim_pair",
    "check_size_bounds",
    "check_toy_oracle",
)
_EQUIVALENCE_ENTRIES = ("equivalence.canonical_form", "equivalence.find_isomorphism")


class Tracer:
    """Span recorder plus the counters that need a function's arguments or result."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # additive counts: those of a forked child add to its parent's
        self.count = dict.fromkeys(
            ("bases", "subsets", "lookups", "raw_growth", "candidates", "classes", "scan_hits", "scan_misses",
             "norm_misses", "norm_entries", "type_entries"),
            0,
        )
        self.phases: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, record)
            return result

        return traced

    def parent_name(self, record: list) -> str | None:
        return self.spans[record[3]][0] if record[3] >= 0 else None

    def install(self) -> None:
        """Patch every capclass module global that is bound to a traced function."""
        from capclass import decomp, equivalence

        self._decomp, self._equivalence = decomp, equivalence
        self._scan = decomp._basis_scan  # the lru_cache object, before it is wrapped
        self._baseline()
        hooks = {
            "decomp.basis_scan": self._after_basis_scan,
            "capset.extension_candidates": self._after_candidates,
            "classifier.classify": self._after_classify,
            "equivalence.canonical_form": self._after_equivalence_entry,
            "equivalence.find_isomorphism": self._after_equivalence_entry,
        }
        targets = [(f"capclass.{mod}", fn, name) for mod, fn, name in _TARGETS]
        targets += [("capclass.classifier", check, "classifier.phase") for check in _CHECKS]
        modules = [m for key, m in sys.modules.items() if key == "capclass" or key.startswith("capclass.")]
        for module_name, fn_name, name in targets:
            original = getattr(sys.modules[module_name], fn_name)
            after = self._after_phase if name == "classifier.phase" else hooks.get(name)
            wrapper = self.wrap(name, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def _baseline(self) -> None:
        self._scan_info = self._scan.cache_info()
        self._scan_misses = self._scan_info.misses
        self._raw_len = len(self._equivalence._RAW_FORM_CACHE)
        self._norm_len = len(self._equivalence._NORM_FORM_CACHE)

    def restart(self) -> None:
        """Forget what was recorded so far: a forked child then records only its own work."""
        self.spans.clear()
        self.phases.clear()
        self.count = dict.fromkeys(self.count, 0)
        self._baseline()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- hooks: counts measured where the work happens

    def _after_basis_scan(self, args, result, record) -> None:
        masks, bc = args
        if self.parent_name(record) in _EQUIVALENCE_ENTRIES:
            self.count["lookups"] += sum(1 for _, sups in result if len(sups) >= 3)
        # only a cache miss scans; a hit returns the stored bases
        misses = self._scan.cache_info().misses
        if misses > self._scan_misses:
            self.count["bases"] += len(result)
            self.count["subsets"] += comb(len(masks), bc)
        self._scan_misses = misses

    def _after_candidates(self, args, result, record) -> None:
        if self.parent_name(record) == "classifier.classify":
            self.count["candidates"] += len(result)

    def _after_classify(self, args, result, record) -> None:
        dim, max_size = args[0], args[1]
        self.count["classes"] += sum(n for size, n in result.counts().items() if size > dim + 1)
        if self.parent_name(record) == "classifier.verify_paper":
            self._add_phase(f"classify-{dim}-{max_size}", record)

    def _after_phase(self, args, result, record) -> None:
        record[0] = f"classifier.phase.{result.claim_id}"
        self._add_phase(result.claim_id, record)

    def _add_phase(self, phase: str, record: list) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + record[2] - record[1]

    def _after_equivalence_entry(self, args, result, record) -> None:
        # the raw cache is cleared when it reaches its limit; a shrink
        # since the last look means one clear happened in between
        now = len(self._equivalence._RAW_FORM_CACHE)
        if now >= self._raw_len:
            self.count["raw_growth"] += now - self._raw_len
        else:
            self.count["raw_growth"] += self._equivalence._RAW_CACHE_LIMIT - self._raw_len + now
        self._raw_len = now

    # -- results

    def harvest(self) -> dict:
        """This process's spans, phases and counts, cache sizes included, as plain JSON data."""
        info = self._scan.cache_info()
        norm = len(self._equivalence._NORM_FORM_CACHE)
        counts = dict(self.count)
        counts["scan_hits"] += info.hits - self._scan_info.hits
        counts["scan_misses"] += info.misses - self._scan_info.misses
        counts["norm_misses"] += norm - self._norm_len
        counts["norm_entries"] += norm
        counts["type_entries"] += len(self._decomp._TYPE_CACHE)
        return {"spans": self.spans, "phases": self.phases, "count": counts}

    def absorb(self, harvest: dict) -> None:
        """Add the harvest of a forked child that restarted; its caches began as this process's."""
        offset = len(self.spans)
        self.spans += [[name, start, end, parent + offset if parent >= 0 else -1]
                       for name, start, end, parent in harvest["spans"]]
        for phase, seconds in harvest["phases"].items():
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        for key, value in harvest["count"].items():
            self.count[key] += value
        self.count["norm_entries"] -= len(self._equivalence._NORM_FORM_CACHE)
        self.count["type_entries"] -= len(self._decomp._TYPE_CACHE)

    @staticmethod
    def totals(spans: list[list]) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), children in zip(spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return out

    @classmethod
    def layer_metrics(cls, harvest: dict) -> dict[str, float]:
        """Per-layer metrics of one harvest; phases that did not run are left out."""
        totals = cls.totals(harvest["spans"])

        def calls(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[0]

        def total_s(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[1]

        def self_s(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[2]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = harvest["count"]
        metrics = {
            "decomp.basis_scan.calls": calls("decomp.basis_scan"),
            "decomp.basis_scan.s": total_s("decomp.basis_scan"),
            "decomp.basis_scan.bases": c["bases"],
            "decomp.basis_scan.hit_ratio": ratio(c["scan_hits"], c["scan_hits"] + c["scan_misses"]),
            "decomp.bases_per_subset": ratio(c["bases"], c["subsets"]),
            "decomp.type_census.calls": calls("decomp.type_census"),
            "decomp.type_census.self_s": self_s("decomp.type_census"),
            "decomp.type_cache.entries": c["type_entries"],
            "equivalence.canonical_form.calls": calls("equivalence.canonical_form"),
            "equivalence.canonical_form.self_s": self_s("equivalence.canonical_form"),
            "equivalence.raw_cache.hit_ratio": 1.0 - ratio(c["raw_growth"], c["lookups"]) if c["lookups"] else 0.0,
            "equivalence.norm_cache.misses": c["norm_misses"],
            "equivalence.norm_cache.entries": c["norm_entries"],
            "equivalence.find_isomorphism.self_s": self_s("equivalence.find_isomorphism"),
            "equivalence.verify_map.s": total_s("equivalence.verify_map"),
            "capset.extension_candidates.calls": calls("capset.extension_candidates"),
            "capset.extension_candidates.s": total_s("capset.extension_candidates"),
            "capset.is_complete.s": total_s("capset.is_complete"),
            "capset.is_cap.s": total_s("capset.is_cap"),
            "gf2.apply_affine_map.calls": calls("gf2.apply_affine_map"),
            "gf2.apply_affine_map.s": total_s("gf2.apply_affine_map"),
            "gf2.random_invertible_affine.s": total_s("gf2.random_invertible_affine"),
            "classifier.candidates": c["candidates"],
            "classifier.classes": c["classes"],
            "classifier.yield": ratio(c["classes"], c["candidates"]),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.spans": len(harvest["spans"]),
        }
        for phase, seconds in harvest["phases"].items():
            metrics[f"classifier.phase.{phase}.s"] = seconds
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as one JSON document: names once, spans as index rows."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(name, len(names)), start, end, parent] for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(names), "spans": rows}), encoding="utf-8")
