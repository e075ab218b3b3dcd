#!/usr/bin/env python3
"""The dppred benchmark: train a concise rule model, then serve predictions from it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from anywhere; it imports dppred from the ``src/`` directory next to
``perfbench/`` and fails without printing a result when that is missing.
One process runs one workload (``medical-forward``, ``medical-lasso`` or
``subtyped-stratify``, see ``workloads.py``).

Set-up writes the workload's CSV files from ``--seed``: a fixed number of
datasets per workload. The untraced run (``--trace 0``) trains a model on
each, each train job followed by a batch job from the saved file. After
every train job it serves for a quarter of the job's time, alternating
batch jobs with single-row requests in a closed loop with one caller; when every
dataset has been trained on and time is left, it trains on them again in
turn. It stops when ``--seconds`` have passed since training began and at
least 1000 single rows were served, so that every metric samples the whole
run and meets the same changes in machine speed. It prints every
end-to-end metric with its unit and sample count. ``setup_s`` is the median
time to import dppred, here and in four fresh interpreters, plus the median
time to write one dataset's files.
The traced run (``--trace 1``) trains once untraced and once traced, serves
traced, runs the README quickstart commands through ``dppred.cli.main`` and
prints the per-layer metrics (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the operations: each train job, the first batch job of each model, the
first single-row request for each served test row and each check. The
same seed attempts the same operations however fast the machine runs:
repeated batch jobs and requests are timed and must give the bits of the
first, but are not counted again. ``failed`` counts the operations that
raised or returned a wrong answer, such as a single-row prediction that
differs from its batch prediction. ``correct`` is false when a job raised
or a check failed: set-up not reproducible, a saved and reloaded model
predicting other bits, a repeated job or request answering differently, a
test error or rule recovery outside the quality bounds, or tracing changing
the model bytes.

BLAS runs on one thread: on a host whose few cores other tenants share, a
second BLAS thread made timings depend on two cores' load instead of one.
Everything printed is also written, with provenance, to
``.perfbench/results/`` at the root of the checkout; traced runs write their
spans there too.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STREAM_SLICE_S = 0.5     # single-row requests between two batch jobs, in seconds
SERVE_SHARE = 0.25       # serving after each train job, as a share of the job's time
IMPORT_REPEATS = 4       # imports of dppred timed in fresh interpreters, for setup_s
MIN_STREAM_ROWS = {"full": 1000, "tiny": 50}   # p99 keeps >= 10 samples beyond it
TRACE_STREAM_ROWS = 1000

# End-to-end metrics in the untraced run's result line. The median latency
# is printed but left out: on a shared 2-vCPU virtual machine, stretches of
# seconds to minutes ran up to 1.7x slower, so the median of single-row
# latencies jumped between two levels from run to run, while the mean moves
# with the share of slow time.
END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("stream_mean_us", "us"),
    ("stream_p99_us", "us"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics in the traced run's result line: those an optimisation
# of a layer is most likely to move. Every timing here is measured on every
# workload; counts and shares read 0 where their layer does not run. All of
# the per-layer metrics, including timings of layers that only one workload
# runs, are printed and written to the spans file.
PER_LAYER = [
    "data.load_csv_s",
    "tree.fit_forest_s", "tree.internal_nodes", "tree.fit_forest_share_pct",
    "patterns.extract_s", "patterns.pool_size", "patterns.space_build_s", "patterns.space_mb",
    "selection.select_s", "selection.select_share_pct", "selection.candidate_evals",
    "selection.lambda_fits",
    "glm.fit_glm_s", "glm.refit_iterations", "glm.fit_lasso_calls", "glm.fit_lasso_share_pct",
    "model.file_bytes", "model.predict_share_pct",
    "stratify.gibbs_token_updates", "stratify.cluster_patients_share_pct",
    "stratify.predict_share_pct",
    "cli.synth_s",
    "trace.overhead_pct",
]

UNIT_SUFFIXES = [("_s", "s"), ("_pct", "%"), ("_mb", "MB"), ("_bytes", "bytes"),
                 ("_density", "ratio")]


def layer_unit(name):
    """Per-layer units follow the name: ``_s`` seconds, ``_pct`` percent, else a count."""
    return next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = False

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok

    def check(self, name, ok, detail=""):
        print(f"check {name} {'ok' if ok else 'FAILED'} {detail}".rstrip())
        self.broken |= not ok
        return self.op(ok)

    def job(self, name, fn, *args, repeat=False):
        """Run one job; a raised exception fails it and marks the run incorrect.

        A ``repeat`` of a job already counted is counted only when it fails.
        """
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            print(f"job {name} FAILED")
            self.broken = True
            self.op(False)
            return None
        if not repeat:
            self.op(True)
        return result


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_matches(value, batch, i):
    import numpy as np
    return np.asarray(value, dtype=batch.dtype).tobytes() == batch[i:i + 1].tobytes()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_sha():
    """HEAD of the repository holding the benchmark, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args, samples):
    import numpy as np
    sources = sorted((SRC / "dppred").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines += text.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the layout of the build info varies by numpy version
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get(BLAS_THREAD_VARIABLES[0]),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def import_dppred():
    """Import dppred from this checkout's sources; returns the seconds it took.

    numpy comes in with dppred, so this file imports it only after this.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dppred
    import dppred.cli  # noqa: F401 - the CLI module imports every layer
    elapsed = time.perf_counter() - start
    if Path(dppred.__file__).resolve().parent != SRC / "dppred":
        raise RuntimeError(f"imported dppred from {dppred.__file__}, not from {SRC}")
    return elapsed


def time_imports(count):
    """Seconds to import dppred, each in a fresh interpreter that this waits for."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import dppred, dppred.cli; print(time.perf_counter() - start)")
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def set_up(wl, w, size, args, work, ledger, count):
    """Write ``count`` datasets; returns their files, seeds and the write times."""
    datasets, times = [], []
    for i in range(count):
        seed = wl.data_seed(args.seed, i)
        files = wl.Files.under(work, f"d{i}")
        start = time.perf_counter()
        wl.write_inputs(w, size, seed, files)
        times.append(time.perf_counter() - start)
        datasets.append((files, seed))
    # one more write of the first dataset: set-up must be reproducible
    files, seed = datasets[0]
    again = wl.Files.under(work, "again")
    start = time.perf_counter()
    wl.write_inputs(w, size, seed, again)
    times.append(time.perf_counter() - start)
    same = all(wl.sha256_file(a) == wl.sha256_file(b) for a, b in
               [(files.train, again.train), (files.test, again.test), (files.schema, again.schema)])
    ledger.check("setup.reproducible", same, f"seed={seed}")
    return datasets, times


class Served:
    """A trained model as served from its file, with its batch predictions.

    Single-row requests cycle over the first ``stream_rows`` test rows (all
    of them when 0); ``answered[i]`` records whether the first answer for
    row ``i`` matched the batch, None before it is asked.
    """

    def __init__(self, wl, w, files, seed, preds, stream_rows):
        self.files = files
        self.seed = seed
        self.digest = wl.sha256_file(files.model)
        self.preds = preds
        self.model = wl.load_model(w, files.model)
        self.test = wl.load_test(self.model, files.test)
        self.rows = min(stream_rows or self.test.n, self.test.n)
        self.answered = [None] * self.rows
        self.next_row = 0


class Samples:
    """What an untraced run measures."""

    def __init__(self):
        self.train_s = {}        # dataset seed -> seconds of each train job on it
        self.batch_rows = []
        self.batch_s = []
        self.latencies = []
        self.test_error = []
        self.rules_recovered = []
        self.turn = 0


def timed_batch(wl, w, files, ledger, samples, repeat=False):
    start = time.perf_counter()
    batch = ledger.job("batch", wl.batch_job, w, files, repeat=repeat)
    if batch is not None:
        samples.batch_s.append(time.perf_counter() - start)
        samples.batch_rows.append(batch[2])
    return batch


def train_and_check(wl, w, size, files, seed, ledger, samples):
    """One train job, then a batch job from the saved file, then the checks."""
    start = time.perf_counter()
    m = ledger.job("train", wl.train_job, w, files, seed)
    if m is None:
        return None
    samples.train_s[seed] = [time.perf_counter() - start]
    print(f"model seed={seed} sha256={wl.sha256_file(files.model)}")

    batch = timed_batch(wl, w, files, ledger, samples)
    if batch is None:
        return None
    preds, probs, _ = batch
    test = wl.load_test(m, files.test)
    ref_preds, ref_probs = wl.predict_batch(w, m, test)
    ledger.check("save-load-predict.bitwise", same_bits(preds, ref_preds) and same_bits(probs, ref_probs),
                 f"seed={seed}")
    samples.test_error.append(wl.test_error(w, preds, test))
    line = f"quality seed={seed} test_error={samples.test_error[-1]!r}"
    if w.kind == "medical":
        samples.rules_recovered.append(wl.rules_recovered(m, test))
        line += f" rules_recovered={samples.rules_recovered[-1]}"
    print(line)
    return Served(wl, w, files, seed, preds, size.stream_rows)


def retrain(wl, w, served, ledger, samples):
    """A repeated train job on a dataset already trained on: timed, and it must write the same bytes."""
    again = dataclasses.replace(served.files, model=served.files.model + ".again")
    start = time.perf_counter()
    if ledger.job("train", wl.train_job, w, again, served.seed, repeat=True) is not None:
        samples.train_s[served.seed].append(time.perf_counter() - start)
        if wl.sha256_file(again.model) != served.digest:
            ledger.check("train.repeatable", False, f"seed={served.seed}")


def stream(wl, w, served, ledger, latencies, until, max_rows=None, call=None):
    """Single-row requests, one caller, until the clock reaches ``until``.

    The first request for a row counts as failed when its prediction
    differs from the batch prediction of the same row. A request that
    raises, or a repeated request whose answer agrees with the batch when
    the first did not (or the other way round), fails a check.
    """
    call = call or (lambda fn, *args: fn(*args))
    rows = 0
    while max_rows is None or rows < max_rows:
        i = served.next_row
        served.next_row = (i + 1) % served.rows
        rows += 1
        start = time.perf_counter()
        try:
            value = call(wl.predict_row, w, served.model, served.test, i)
        except Exception:  # noqa: BLE001 - a failed request is counted
            traceback.print_exc()
            ledger.check("stream.request", False, f"row {i} raised")
            value = None
        now = time.perf_counter()
        if value is not None:
            latencies.append(now - start)
            ok = served.preds is not None and row_matches(value, served.preds, i)
            if served.answered[i] is None:
                served.answered[i] = ok
                ledger.op(ok)
            elif served.answered[i] != ok:
                ledger.check("stream.repeatable", False, f"row {i} answered differently")
        if now >= until:
            return


def serve(wl, w, served, ledger, samples, until, batches=True):
    """Batch jobs and slices of single-row requests, taking the served models in turn."""
    while time.perf_counter() < until:
        s = served[samples.turn % len(served)]
        samples.turn += 1
        if batches:
            batch = timed_batch(wl, w, s.files, ledger, samples, repeat=True)
            if batch is not None and not same_bits(batch[0], s.preds):
                ledger.check("batch.repeatable", False, "a batch job predicted other bits")
        stream(wl, w, s, ledger, samples.latencies, min(until, time.perf_counter() + STREAM_SLICE_S))


def run_untraced(wl, w, size, args, datasets, ledger):
    deadline = time.perf_counter() + args.seconds
    samples = Samples()
    served = []
    turn = 0
    # a repeated train job starts only when it is likely to end in time
    while turn < len(datasets) or (
            served and time.perf_counter() + statistics.median(sum(samples.train_s.values(), []))
            < deadline):
        job_start = time.perf_counter()
        if turn < len(datasets):
            files, seed = datasets[turn]
            s = train_and_check(wl, w, size, files, seed, ledger, samples)
            if s is not None:
                served.append(s)
        else:
            retrain(wl, w, served[turn % len(served)], ledger, samples)
        turn += 1
        if served:
            # a new model is served alone, so that each model is served about
            # as long as the others whatever its place in the run
            serve(wl, w, served[-1:] if turn <= len(datasets) else served, ledger, samples,
                  time.perf_counter() + SERVE_SHARE * (time.perf_counter() - job_start))
    if not served:
        raise RuntimeError("no model could be trained")
    serve(wl, w, served, ledger, samples, deadline)
    while len(samples.latencies) < MIN_STREAM_ROWS[args.size]:
        serve(wl, w, served, ledger, samples, time.perf_counter() + STREAM_SLICE_S, batches=False)
    # every streamed row is asked at least once, so that the operations
    # counted depend on the seed alone; rows are asked in order from 0, so
    # the rows not yet asked are the ones after ``next_row``
    for s in served:
        stream(wl, w, s, ledger, samples.latencies, math.inf, max_rows=s.answered.count(None))

    lat = samples.latencies
    metrics = {
        # training time varies up to twofold between datasets: every dataset
        # weighs the same, and repeated jobs on one take their median
        "train_s": (statistics.fmean(statistics.median(t) for t in samples.train_s.values()),
                    sum(map(len, samples.train_s.values()))),
        "predict_rows_per_s": (sum(samples.batch_rows) / sum(samples.batch_s), len(samples.batch_s)),
        "stream_p50_us": (percentile(lat, 50) * 1e6, len(lat)),
        "stream_p99_us": (percentile(lat, 99) * 1e6, len(lat)),
        "stream_mean_us": (statistics.fmean(lat) * 1e6, len(lat)),
    }
    # quality varies between datasets of these sizes; the bounds hold the median
    error = statistics.median(samples.test_error)
    ledger.check("test_error.bound", error <= size.max_test_error,
                 f"median {error:.6g} <= {size.max_test_error}")
    extra = {"test_error": (error, len(samples.test_error))}
    if samples.rules_recovered:
        found = statistics.median(samples.rules_recovered)
        ledger.check("rules_recovered.bound", found >= size.min_rules_recovered,
                     f"median {found} >= {size.min_rules_recovered} of 3")
        extra["rules_recovered"] = (found, len(samples.rules_recovered))
    return metrics, extra


def run_cli(wl, w, size, args, work, ledger):
    """The README quickstart commands through ``dppred.cli.main``; returns their times."""
    import dppred.cli
    out = wl.Files.under(work, "cli")
    times = {}
    for name, argv in wl.cli_commands(w, size, wl.data_seed(args.seed, 0), out):
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = dppred.cli.main(argv)
        times[f"cli.{name}_s"] = time.perf_counter() - start
        if not ledger.check(f"cli.{name}.exit", code == 0, f"code={code}"):
            print(captured.getvalue(), file=sys.stderr)
    return out, times


def layer_metrics(tracer, train_op_s, untraced_train_s):
    """Every per-layer metric from the spans and counters of a traced run."""
    every = tracer.totals()
    in_train = tracer.totals("train")
    in_batch = tracer.totals("batch")

    def total(table, *names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(table, *names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    c = tracer.counters
    batch_s = total(in_batch, "op.batch")
    strat_trains = tracer.durations("stratify.train")
    cells = c.get("patterns.space_cells", 0)
    share = lambda part, whole: 100.0 * part / whole if whole else 0.0  # noqa: E731
    selection_names = ("selection.forward_select", "selection.lasso_select")
    return {
        "data.load_csv_s": total(every, "data.load_csv"),
        "data.rows": c.get("data.rows", 0),
        "tree.fit_forest_s": total(every, "tree.fit_forest"),
        "tree.forests": c.get("tree.forests", 0),
        "tree.internal_nodes": c.get("tree.internal_nodes", 0),
        "tree.fit_forest_share_pct": share(total(in_train, "tree.fit_forest"), train_op_s),
        "patterns.extract_s": total(every, "patterns.extract_patterns"),
        "patterns.pool_size": c.get("patterns.pool_size", 0),
        "patterns.duplicates_dropped": c.get("patterns.duplicates_dropped", 0),
        "patterns.space_build_s": total(every, "patterns.construct_pattern_space"),
        "patterns.space_density": c.get("patterns.space_nonzeros", 0) / cells if cells else 0.0,
        "patterns.space_mb": c.get("patterns.space_bytes_max", 0) / 2**20,
        "selection.select_s": own(every, *selection_names),
        "selection.select_share_pct": share(total(in_train, *selection_names), train_op_s),
        "selection.rounds": c.get("selection.rounds", 0),
        "selection.candidate_evals": c.get("selection.candidate_evals", 0),
        "selection.lambda_fits": c.get("selection.lambda_fits", 0),
        "glm.fit_glm_s": total(every, "glm.fit_glm", "stratify.fit_glm"),
        "glm.fit_glm_calls": c.get("glm.fit_glm_calls", 0),
        "glm.refit_iterations": c.get("glm.refit_iterations", 0),
        "glm.fit_lasso_s": total(every, "glm.fit_lasso"),
        "glm.fit_lasso_calls": c.get("glm.fit_lasso_calls", 0),
        "glm.fit_lasso_share_pct": share(total(in_train, "glm.fit_lasso"), train_op_s),
        "glm.lambda_max_s": total(every, "glm.lambda_max"),
        "model.predict_s": own(every, "model.predict"),
        "model.predict_probabilities_s": total(every, "model.predict_probabilities"),
        "model.predict_one_s": total(every, "model.predict_one"),
        "model.save_s": total(every, "model.save"),
        "model.load_s": total(every, "model.load"),
        "model.file_bytes": c.get("model.file_bytes", 0),
        "model.predict_share_pct": share(
            total(in_batch, "model.predict", "model.predict_probabilities"), batch_s),
        "stratify.global_train_s": sum(strat_trains[:1]),
        "stratify.local_train_s": sum(strat_trains[1:]),
        "stratify.cluster_patients_s": total(every, "stratify.cluster_patients"),
        "stratify.gibbs_token_updates": c.get("stratify.gibbs_token_updates", 0),
        "stratify.unified_fit_s": total(every, "stratify.fit_glm"),
        "stratify.cluster_size_min": c.get("stratify.cluster_size_min", 0),
        "stratify.cluster_size_max": c.get("stratify.cluster_size_max", 0),
        "stratify.cluster_patients_share_pct": share(
            total(in_train, "stratify.cluster_patients"), train_op_s),
        "stratify.assign_clusters_s": total(every, "stratify.assign_clusters"),
        "stratify.predict_s": total(every, "stratify.predict_stratified"),
        "stratify.predict_share_pct": share(total(in_batch, "stratify.predict_stratified"), batch_s),
        "stratify.save_s": total(every, "stratify.save_stratified"),
        "stratify.load_s": total(every, "stratify.load_stratified"),
        "trace.overhead_pct": share(train_op_s - untraced_train_s, untraced_train_s),
    }


def run_traced(wl, w, size, args, datasets, work, ledger):
    from tracing import Tracer
    files, seed = datasets[0]
    # the CLI commands go first so that both train jobs below run warm
    cli_out, cli_times = run_cli(wl, w, size, args, work, ledger)
    start = time.perf_counter()
    if ledger.job("train", wl.train_job, w, files, seed) is None:
        raise RuntimeError("the untraced train job failed")
    untraced_s = time.perf_counter() - start
    digest = wl.sha256_file(files.model)

    traced = wl.Files(files.train, files.test, files.schema, str(work / "traced.model.txt"))
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        ledger.job("train", tracer.operation, "train", wl.train_job, w, traced, seed)
        train_op_s = tracer.durations("op.train")[0]
        ledger.check("trace.model_bytes_unchanged", wl.sha256_file(traced.model) == digest,
                     "traced and untraced model files")
        batch = ledger.job("batch", tracer.operation, "batch", wl.batch_job, w, traced)
        served = Served(wl, w, traced, seed, batch[0] if batch else None, size.stream_rows)
        stream(wl, w, served, ledger, [], math.inf, max_rows=min(TRACE_STREAM_ROWS, served.rows),
               call=lambda fn, *a: tracer.operation("stream", fn, *a))
        if w.stratified:
            ledger.job("fold-in", tracer.operation, "fold-in",
                       sys.modules["dppred.stratify"].assign_clusters, served.model, served.test)
    finally:
        tracer.close()

    ledger.check("cli.model_bytes_equal", wl.sha256_file(cli_out.model) == digest,
                 "CLI train and in-process train job")
    ledger.check("cli.synth_bytes_equal", all(
        wl.sha256_file(a) == wl.sha256_file(b) for a, b in
        [(cli_out.train, files.train), (cli_out.test, files.test), (cli_out.schema, files.schema)]),
        "CLI synth and set-up")

    metrics = layer_metrics(tracer, train_op_s, untraced_s)
    metrics.update(cli_times)
    print(f"trace train_s untraced={untraced_s:.6f} traced={train_op_s:.6f}")
    return metrics, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="'tiny' is for the self-test only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dppred" / "__init__.py").is_file():
        print(f"error: no dppred sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARIABLES:   # read when numpy is first imported
        os.environ[name] = "1"
    import_s = import_dppred()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    size = w.sizes[args.size]
    print(f"workload {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size} n_train={size.n_train} n_test={size.n_test}")

    work = OUT / "work" / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    results = OUT / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        datasets, setup_times = set_up(wl, w, size, args, work, ledger,
                                       1 if args.trace else size.train_jobs)
        if args.trace:
            layers, tracer = run_traced(wl, w, size, args, datasets, work, ledger)
        else:
            measured, extra = run_untraced(wl, w, size, args, datasets, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = results / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        for name, value in layers.items():
            print(f"layer {name} {value!r} {layer_unit(name)}")
        reported = {name: {"value": layers[name], "unit": layer_unit(name)} for name in PER_LAYER}
        samples = {"spans": len(tracer.spans)}
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.as_json(), "counters": tracer.counters,
                       "layers": {name: {"value": value, "unit": layer_unit(name)}
                                  for name, value in layers.items()}}, fh)
    else:
        # set-up is the import and one dataset's files, each the median of several
        import_times = [import_s] + time_imports(IMPORT_REPEATS)
        measured["setup_s"] = (statistics.median(import_times) + statistics.median(setup_times),
                               len(import_times) + len(setup_times))
        measured["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        units = dict(END_TO_END, stream_p50_us="us", rules_recovered="count",
                     test_error="1" if w.task == "classification" else "label")
        for name, (value, n) in {**measured, **extra}.items():
            print(f"metric {name} {value!r} {units[name]} n={n}")
        print(f"metric error_rate {ledger.failed / max(ledger.attempted, 1)!r} failed/attempted "
              f"n={ledger.attempted}")
        reported = {name: {"value": measured[name][0], "unit": unit} for name, unit in END_TO_END}
        samples = {name: n for name, (_, n) in {**measured, **extra}.items()}

    prov = provenance(args, samples)
    for key, value in prov.items():
        print(f"provenance {key} {value}")
    result = {"correct": not ledger.broken, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": reported}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
