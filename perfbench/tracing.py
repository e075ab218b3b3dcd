"""Spans and counters recorded around the calls into each dppred layer.

The tracer replaces module-level names of dppred with thin wrappers and
puts the originals back when it is closed. ``train()`` and
``train_stratified()`` look their helpers up through module globals, so the
nested calls are caught too. Spans stay in memory until the run writes them
out. Counters are read from the objects the wrapped calls return; the
wrappers change no argument and no result.
"""

import functools
import os
import time

# (module, attribute, span name). The attribute is patched where the caller
# looks it up, which for the nested calls is the calling module's namespace.
TRACED_NAMES = [
    ("dppred.data", "read_schema_file", "data.read_schema_file"),
    ("dppred.data", "load_csv", "data.load_csv"),
    ("dppred.data", "minmax_normalize_labels", "data.minmax_normalize_labels"),
    ("dppred.model", "train", "model.train"),
    ("dppred.model", "fit_forest", "tree.fit_forest"),
    ("dppred.model", "extract_patterns", "patterns.extract_patterns"),
    ("dppred.model", "construct_pattern_space", "patterns.construct_pattern_space"),
    ("dppred.model", "forward_select", "selection.forward_select"),
    ("dppred.model", "lasso_select", "selection.lasso_select"),
    ("dppred.selection", "fit_glm", "glm.fit_glm"),
    ("dppred.selection", "fit_lasso", "glm.fit_lasso"),
    ("dppred.selection", "lambda_max", "glm.lambda_max"),
    ("dppred.model", "save", "model.save"),
    ("dppred.model", "load", "model.load"),
    ("dppred.model", "predict", "model.predict"),
    ("dppred.model", "predict_probabilities", "model.predict_probabilities"),
    ("dppred.model", "predict_one", "model.predict_one"),
    ("dppred.stratify", "train_stratified", "stratify.train_stratified"),
    ("dppred.stratify", "train", "stratify.train"),
    ("dppred.stratify", "construct_pattern_space", "patterns.construct_pattern_space"),
    ("dppred.stratify", "cluster_patients", "stratify.cluster_patients"),
    ("dppred.stratify", "fit_glm", "stratify.fit_glm"),
    ("dppred.stratify", "assign_clusters", "stratify.assign_clusters"),
    ("dppred.stratify", "predict_stratified", "stratify.predict_stratified"),
    ("dppred.stratify", "save_stratified", "stratify.save_stratified"),
    ("dppred.stratify", "load_stratified", "stratify.load_stratified"),
]


def _internal_nodes(forest):
    count = 0
    for tree in forest:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                count += 1
                stack.extend((node.left, node.right))
    return count


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _observe(name, args, result, counters):
    """Update the counters from one finished call."""
    if name == "data.load_csv":
        _add(counters, "data.rows", result.n)
    elif name == "tree.fit_forest":
        _add(counters, "tree.forests", 1)
        _add(counters, "tree.internal_nodes", _internal_nodes(result))
    elif name == "patterns.extract_patterns":
        # every internal node contributes one rule before deduplication
        _add(counters, "patterns.pool_size", len(result))
        _add(counters, "patterns.duplicates_dropped", _internal_nodes(args[0]) - len(result))
    elif name == "patterns.construct_pattern_space":
        _add(counters, "patterns.space_cells", result.size)
        _add(counters, "patterns.space_nonzeros", int(result.sum(dtype=float)))
        counters["patterns.space_bytes_max"] = max(counters.get("patterns.space_bytes_max", 0),
                                                    result.nbytes)
    elif name == "selection.forward_select":
        rounds = len(result.trace)
        _add(counters, "selection.rounds", rounds)
        _add(counters, "selection.candidate_evals", rounds * args[0].shape[1])
    elif name == "selection.lasso_select":
        _add(counters, "selection.lambda_fits", len(result.trace))
    elif name == "glm.fit_lasso":
        _add(counters, "glm.fit_lasso_calls", 1)
    elif name in ("glm.fit_glm", "stratify.fit_glm"):
        _add(counters, "glm.fit_glm_calls", 1)
        trace = result.objective_trace
        _add(counters, "glm.refit_iterations", 0 if trace is None else len(trace))
    elif name in ("model.save", "stratify.save_stratified"):
        counters["model.file_bytes"] = os.path.getsize(args[1])
    elif name == "stratify.cluster_patients":
        bits, cfg = args[0], args[1]
        assignments = result[0]
        sizes = [int((assignments == c).sum()) for c in range(cfg.n_clusters)]
        _add(counters, "stratify.gibbs_token_updates", int(bits.sum(dtype=float)) * cfg.gibbs_iterations)
        counters["stratify.cluster_size_min"] = min(sizes)
        counters["stratify.cluster_size_max"] = max(sizes)


class Tracer:
    """Records a span (name, start, end, parent, operation) around each call."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []
        self._operation = None

    def install(self, modules):
        for module_name, attr, span_name in TRACED_NAMES:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            self._patched.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            _observe(name, args, result, self.counters)
            return result
        return traced

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self._operation]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def operation(self, name, fn, *args, **kwargs):
        """Run ``fn`` as one benchmark operation, under a root span of that name."""
        self._operation = name
        try:
            return self.call("op." + name, fn, *args, **kwargs)
        finally:
            self._operation = None

    def totals(self, operation=None):
        """Per span name: (call count, total seconds, self seconds).

        Self time is a span's duration minus the time its children cover;
        ``operation`` keeps only the spans of that benchmark operation.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if operation is not None and op != operation:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_time[i])
        return out

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def as_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "operation": op}
                for n, s, e, p, op in self.spans]
