"""The benchmark's jobs run on the current dppred.

``perfbench/workloads.py`` calls dppred the way each benchmark job does, so
a change that drops or renames something those jobs use fails here, and
not only in ``perfbench/selftest.py``. Each workload runs once, at its
``tiny`` size on one dataset.
"""

import pytest

from conftest import perfbench_module
from dppred.cli import build_parser

wl = perfbench_module("workloads")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_jobs_run(name, tmp_path):
    w = wl.WORKLOADS[name]
    size = w.sizes["tiny"]
    seed = wl.data_seed(1, 0)
    files = wl.Files.under(tmp_path, "d0")
    wl.write_inputs(w, size, seed, files)
    m = wl.train_job(w, files, seed)
    preds, probs, n = wl.batch_job(w, files)
    assert n == size.n_test == len(preds)
    assert (probs is not None) == (w.task == "classification")
    served = wl.load_model(w, files.model)
    test = wl.load_test(served, files.test)
    assert [wl.predict_row(w, served, test, i) for i in range(5)] == preds[:5].tolist()
    assert wl.test_error(w, preds, test) <= size.max_test_error
    if w.kind == "medical":
        assert 0 <= wl.rules_recovered(m, test) <= 3


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_cli_commands_parse(name, tmp_path):
    w = wl.WORKLOADS[name]
    out = wl.Files.under(tmp_path, "cli")
    for command, argv in wl.cli_commands(w, w.sizes["tiny"], 1, out):
        args = build_parser().parse_args(argv)
        assert args.seed == 1, command
