"""Per-layer tracing of ctxclass from outside the package.

:class:`Tracer` replaces the public functions of the six ctxclass modules,
at every module attribute the callers look them up by (``harness.run_pipeline``
is the same function as ``preprocess.run_pipeline``, and both bindings get the
same wrapper), plus a few methods on their classes.  A wrapped call records a
span ``[name, start, end, parent]`` in memory; a span's name is the function's
home module and qualified name, e.g. ``preprocess.run_pipeline``.  Functions
called once per cell or per probability lookup get a call counter instead of
a span, and the per-cell encoders are left alone, so that tracing stays cheap;
their time lands in the self time of the span that called them.

:func:`layer_metrics` turns one pass's spans and counters into the per-layer
metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import inspect
import re
import subprocess
import sys
import time
from collections import Counter

MODULES = ("data", "taxonomy", "preprocess", "classify", "harness", "cli")  # dependency order

# called once per cell or per pair of rows: not wrapped at all
PER_CELL = {"encode_value", "bin_index", "similarity", "percent"}
# hot paths that get a call counter instead of a span
COUNTED = {
    "taxonomy.cond_prob",
    "taxonomy.JointDistribution.marginal",
    "preprocess.GroupContextModel.stats_for",
    "preprocess.RegressionContextModel.stats_for",
}
METHODS = (
    "data.Dataset.build",
    "data.JointSpec.from_json",
    "taxonomy.JointDistribution.from_spec",
    "taxonomy.JointDistribution.marginal",
    "preprocess.GroupContextModel.stats_for",
    "preprocess.RegressionContextModel.stats_for",
)

_NORMALIZERS = tuple(
    f"preprocess.{f}"
    for f in ("fit_minmax", "apply_minmax", "fit_zscore", "apply_zscore", "fit_percentile",
              "apply_percentile", "fit_contextual", "fit_contextual_model", "apply_contextual")
)

# metric -> spans whose durations it sums (a span nested inside another
# listed span is not counted twice)
SPAN_TIMES = {
    "data.load_s": ("data.load_hepatitis", "data.load_table", "data.load_vowel",
                    "data.JointSpec.from_json"),
    "data.split_s": ("data.split_random",),
    "preprocess.impute_s": ("preprocess.impute_missing",),
    "preprocess.pipeline_s": ("preprocess.run_pipeline",),
    "preprocess.encode_s": ("preprocess.encode_numeric",),
    "preprocess.weight_s": ("preprocess.compute_weights", "preprocess.apply_weights"),
    "preprocess.expand_s": ("preprocess.fit_expansion", "preprocess.apply_expansion"),
    "preprocess.bins_s": ("preprocess.equal_freq_bins",),
    "preprocess.normalize_s": _NORMALIZERS,
    "classify.mlr_fit_s": ("classify.mlr_fit",),
    "classify.mlr_predict_s": ("classify.mlr_predict_dataset", "classify.mlr_predict"),
    "classify.nn_fit_s": ("classify.nn_fit",),
    "classify.nn_predict_s": ("classify.nn_predict_dataset", "classify.nn_predict"),
    "taxonomy.estimate_s": ("taxonomy.estimate_distribution",),
    "taxonomy.classify_s": ("taxonomy.classify_features",),
    "taxonomy.sensitivity_s": ("taxonomy.is_context_sensitive",),
    "harness.evaluate_s": ("harness.evaluate",),
    "harness.ttest_s": ("harness.paired_t_test",),
    "harness.emit_s": ("harness.emit_table", "harness.write_report"),
}
# metric -> spans whose self time (duration minus child spans) it sums
SELF_TIMES = {"preprocess.pipeline_self_s": ("preprocess.run_pipeline",)}
SELF_TIMES |= {f"{m}.self_s": None for m in MODULES}  # None: every span of the module
# metric -> functions whose calls it counts
CALLS = {
    "preprocess.impute_calls": ("preprocess.impute_missing",),
    "preprocess.pipeline_calls": ("preprocess.run_pipeline",),
    "preprocess.context_stats_calls": ("preprocess.GroupContextModel.stats_for",
                                       "preprocess.RegressionContextModel.stats_for"),
    "taxonomy.marginal_calls": ("taxonomy.JointDistribution.marginal",),
    "taxonomy.cond_prob_calls": ("taxonomy.cond_prob",),
    "harness.cells": ("harness.evaluate",),
}


def _count_build(counts, args, kwargs, result):
    counts["data.build_rows"] += result.n_rows


def _count_imputed(counts, args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    counts["preprocess.imputed_cells"] += target.missing_count()


def _count_selected(counts, args, kwargs, result):
    counts["classify.mlr_selected"] += sum(len(eq.selected) for eq in result.equations)


def _count_nn_predicted(counts, args, kwargs, result):
    model, dataset = args[0], args[1]
    n_train, d = model.features.shape
    counts["classify.rows_predicted"] += dataset.n_rows
    # computed from the shapes, not measured: the n_test x n_train x d float64 tensor
    counts["classify.nn_distance_mb"] = max(
        counts["classify.nn_distance_mb"], dataset.n_rows * n_train * d * 8 / 1e6
    )


def _count_mlr_predicted(counts, args, kwargs, result):
    counts["classify.rows_predicted"] += args[1].n_rows


# span name -> counter hook run after the call returns
HOOKS = {
    "data.Dataset.build": _count_build,
    "preprocess.impute_missing": _count_imputed,
    "classify.mlr_fit": _count_selected,
    "classify.nn_predict_dataset": _count_nn_predicted,
    "classify.mlr_predict_dataset": _count_mlr_predicted,
}
HOOK_COUNTS = ("data.build_rows", "preprocess.imputed_cells", "classify.mlr_selected",
               "classify.rows_predicted", "classify.nn_distance_mb")

# counts that must repeat exactly from one pass to the next
EXACT_COUNTS = tuple(CALLS) + HOOK_COUNTS

LAYER_METRICS = (
    {name: "s" for name in SPAN_TIMES}
    | {name: "s" for name in SELF_TIMES}
    | {name: "count" for name in CALLS}
    | {name: "count" for name in HOOK_COUNTS if name != "classify.nn_distance_mb"}
    | {"classify.nn_distance_mb": "MB"}
    | {f"{m}.import_s": "s" for m in MODULES}
)


class Tracer:
    """Spans and counters of the current pass; :meth:`install` wraps the
    package, :meth:`uninstall` restores it."""

    def __init__(self, package_modules: dict[str, object]):
        self.modules = package_modules  # short name -> module, plus "" -> the package
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.calls.clear()
        self.counts.clear()
        self._stack.clear()

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.hook_errors[name] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        return self._counter(name, fn) if name in COUNTED else self._span(name, fn)

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id(original function) -> its wrapper
        for short in MODULES:
            mod = self.modules[short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and attr not in PER_CELL and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for name in METHODS:
            short, cls_name, attr = name.split(".")
            cls = getattr(self.modules[short], cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Metrics from one pass


def _outermost(spans: list[list], names: set) -> list[int]:
    """Indices of spans in ``names`` that have no ancestor in ``names``."""
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], calls: Counter, counts: Counter) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for metric, names in SPAN_TIMES.items():
        metrics[metric] = sum(spans[i][2] - spans[i][1] for i in _outermost(spans, set(names)))
    own = self_times(spans)
    for metric, names in SELF_TIMES.items():
        prefix = metric.split(".")[0] + "."
        metrics[metric] = sum(
            t for (name, *_), t in zip(spans, own)
            if (name in names if names else name.startswith(prefix))
        )
    span_calls = Counter(name for name, *_ in spans)
    for metric, names in CALLS.items():
        metrics[metric] = sum(span_calls[n] + calls[n] for n in names)
    for metric in HOOK_COUNTS:
        metrics[metric] = counts[metric]
    return metrics


# ---------------------------------------------------------------------------
# Import time of each module

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_times(env: dict) -> dict[str, float]:
    """Incremental import seconds of each module, imported in dependency
    order in a fresh interpreter: the module's cumulative time under
    ``-X importtime`` minus that of the ctxclass modules it imported."""
    code = "; ".join(f"import ctxclass.{m}" for m in MODULES)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    # lines come children first; a line's indent is its nesting depth
    pending: list[tuple[int, str, int, int]] = []  # depth, name, cumulative, ctxclass part
    incremental: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        nested = 0
        while pending and pending[-1][0] > depth:
            child_depth, child, child_cum, child_nested = pending.pop()
            if child_depth == depth + 2:
                nested += child_cum if child.startswith("ctxclass") else child_nested
        pending.append((depth, name, cumulative, nested))
        if name.startswith("ctxclass."):
            # a submodule imported by the package's __init__ shows up twice:
            # nested with its real cost, and at top level with almost none
            key = name.split(".", 1)[1]
            incremental[key] = incremental.get(key, 0.0) + (cumulative - nested) / 1e6
    return {f"{m}.import_s": incremental.get(m, 0.0) for m in MODULES}
