"""Spans around the package's public functions, recorded from outside it.

:func:`installed` rebinds each listed function at every name a caller can
look it up by (``loqec.detection.analyzer_curve`` and
``loqec.experiment.analyzer_curve`` alike), wraps the one listed method on
its class, and counts ``numpy.random.Philox`` constructions.  A wrapper
records a span only while :attr:`Tracer.on` is set, so the benchmark's own
correctness checks stay out of the trace.  A listed name the package no
longer has is skipped and reads as zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

#: Traced spans per module of ``loqec``; ``Class.method`` wraps a method.
SPANS = {
    "experiment": (
        "run_experiment", "run_analytic", "encode_qubit", "sample_counts", "fit_malus", "hom_scan",
    ),
    "detection": ("coincidence_postselect", "z_measure", "apply_feedforward", "analyzer_curve"),
    "elements": ("hwp", "pbs", "pockels", "bs5050", "rewire", "delay"),
    "state_core": (
        "product_state", "apply_element", "apply_element_single", "condition_on",
        "relabel_paths", "SinglePhotonState.projection_probability",
    ),
    "cli": ("main", "load_manifest"),
}
#: ``delay`` returns the transform that does the work; that is what is timed.
_FACTORIES = {"elements.delay"}
#: Name of the span the benchmark opens around each timed call.
ROOT = "call"

# A span is the list [name, parent index, call index, start ns, end ns, raised].
NAME, PARENT, CALL, START, END, RAISED = range(6)


def span_label(module, qualname):
    """Metric prefix of a span: ``module.function``, dropping a class name."""
    return f"{module}.{qualname.rpartition('.')[2]}"


class Tracer:
    """In-memory span recorder; spans are written out only when the run ends."""

    def __init__(self):
        self.on = False
        self.spans = []
        self._stack = [-1]
        self._call = -1
        self.philox_inits = 0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, stack[-1], self._call, clock(), 0, False]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                stack.pop()
                record[END] = clock()

        return traced

    def wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            made = factory(*args, **kwargs)
            return self.wrap(name, made) if self.on and callable(made) else made

        return make

    def call(self, fn, *args):
        """Run one call under a root span; the span's duration is its wall time."""
        self._call += 1
        self.on = True
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.on = False


@contextlib.contextmanager
def installed(tracer, package):
    """Route every listed function of ``package`` through ``tracer`` while active."""
    prefix = package.__name__
    modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module_name, names in SPANS.items():
        module = sys.modules.get(f"{prefix}.{module_name}")
        for qualname in names:
            label = span_label(module_name, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = (tracer.wrap_factory if label in _FACTORIES else tracer.wrap)(label, original)
            if owner_name:
                rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    rebind(mod, key, wrapper)

    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        if tracer.on:
            tracer.philox_inits += 1
        return philox(*args, **kwargs)

    rebind(np.random, "Philox", counting_philox)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans):
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans):
    """Per span name: calls, self time in ns, and spans that raised."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[NAME], [0, 0, 0])
        row[0] += 1
        row[1] += own
        row[2] += s[RAISED]
    return table


def layer_metrics(tracer, items, untraced_s, files, written_bytes):
    """Per-layer metrics of a traced run, each normalised per work item."""
    items = max(items, 1)
    table = summarize(tracer.spans)
    wall_ns = sum(s[END] - s[START] for s in tracer.spans if s[NAME] == ROOT)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for module, names in SPANS.items():
        module_self = module_errors = 0
        for qualname in names:
            label = span_label(module, qualname)
            calls, own, raised = table.get(label, (0, 0, 0))
            module_self += own
            module_errors += raised
            put(f"{label}.calls_per_item", calls / items, "calls/item")
            put(f"{label}.self_us_per_item", own / 1e3 / items, "us/item")
        put(f"{module}.self_share", module_self / wall_ns, "ratio")
        put(f"{module}.errors", module_errors, "count")
    put("numpy.random.Philox.inits_per_item", tracer.philox_inits / items, "inits/item")
    put("cli.files_written_per_item", files / items, "files/item")
    put("cli.bytes_written_per_item", written_bytes / items, "B/item")
    put("trace.wall_us_per_item", wall_ns / 1e3 / items, "us/item")
    put("trace.outside_us_per_item", table.get(ROOT, (0, 0, 0))[1] / 1e3 / items, "us/item")
    put("trace.overhead_ratio", wall_ns / 1e9 / untraced_s, "ratio")
    return metrics


def write_spans(tracer, path, workload, seed):
    """A header object, then one JSON array per span in the order the spans opened."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        fields = ["name", "parent", "call", "start_ns", "end_ns", "raised"]
        handle.write(json.dumps({"workload": workload, "seed": seed, "fields": fields}) + "\n")
        for s in tracer.spans:
            handle.write(f'["{s[NAME]}",{s[PARENT]},{s[CALL]},{s[START]},{s[END]},{str(s[RAISED]).lower()}]\n')
