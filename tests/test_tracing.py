"""perfbench's tracer still reads capclass's private names.

perfbench/tracing.py wraps module globals and reads memos by name from
outside the package; this runs it over a short verify-paper and one
equivalence decision, so a rename under src/ that breaks a traced
benchmark run fails here.
"""

import importlib.util
import json
import math
from pathlib import Path

import capclass.cli  # noqa: F401  the tracer patches every capclass module it finds loaded
from capclass import classifier, decomp, equivalence
from capclass.templates import instantiate

from oracles import image_cap

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_run_yields_every_benchmark_layer():
    tracer = load_tracer_class()()
    classify = classifier.classify
    tracer.install()
    try:
        assert classifier.classify is not classify
        # through the module attributes, which install() patched
        classifier.verify_paper(invariance_trials=2, exchange_trials=10)
        cap = instantiate("T11_555_332")
        assert equivalence.find_isomorphism(cap, image_cap(cap, 1)) is not None
        harvest = tracer.harvest()
    finally:
        tracer.uninstall()
    assert classifier.classify is classify

    metrics = tracer.layer_metrics(harvest)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # run.py adds the trace.* timings, which need the untraced run
    wanted = {m["name"] for m in benchmark["per_layer"] if not m["name"].startswith("trace.")}
    assert wanted - set(metrics) == set()
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["decomp.type_cache.entries"] == len(decomp._TYPE_CACHE)
