"""The benchmark tracer sees the calls it names.

``perfbench/tracing.py`` wraps module globals by name, so a refactor that
renames or drops one breaks traced benchmark runs, and one that stops
calling it through that name leaves the layer out of the trace silently:
the benchmark's self-test accepts zero for a per-layer value.
"""

import importlib
import sys

import pytest

from conftest import perfbench_module
from dppred import data, model
from dppred.tree import fit_forest

tracing = perfbench_module("tracing")


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in tracing.TRACED_NAMES])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_train_job_records_the_rule_space(tmp_path):
    wl = perfbench_module("workloads")
    w = wl.WORKLOADS["medical-forward"]
    seed = wl.data_seed(1, 0)
    files = wl.Files.under(tmp_path, "d0")
    wl.write_inputs(w, w.sizes["tiny"], seed, files)

    label_task, schema = data.read_schema_file(files.schema)
    ds = data.load_csv(files.train, schema, label_task)
    pool = model.extract_patterns(fit_forest(ds, wl.hyperparams(w, seed).tree))

    originals = (model.extract_patterns, model.construct_pattern_space)
    tracer = tracing.Tracer()
    tracer.install(sys.modules)
    try:
        tracer.operation("train", wl.train_job, w, files, seed)
    finally:
        tracer.close()
    spans = tracer.totals("train")
    assert spans["patterns.extract_patterns"][0] == 1
    assert spans["patterns.construct_pattern_space"][0] == 1
    assert tracer.counters["patterns.pool_size"] == len(pool)
    assert tracer.counters["patterns.space_cells"] == ds.n * len(pool)
    assert (model.extract_patterns, model.construct_pattern_space) == originals
