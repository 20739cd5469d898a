"""The traced run: spans at every public randlab function, counters in
wrappers around the callables that users hand to the lab.

Spans.  ``Tracer.install`` replaces every public module-level function of
each layer module with a wrapper that records a span (name, start, end,
parent span, op), both in its own module and in every randlab module that
imported it by name.  ``randomness.coverage_at_least`` and
``intervals.coverage_at_least`` are the same function bound twice, so both
bindings are patched and record the span ``intervals.coverage_at_least``.
The benchmark also opens one root span per op, named ``op.<class>``.

Counters.  ``Context`` rebuilds each object it is given with the lab's own
public constructors around a counting callable: ``CylinderMeasure`` (mass),
``Martingale`` (capital), ``dataclasses.replace`` on ``MarkovFunction``
(evaluation) and ``TTFunctional`` (output bits, and a tally dict that counts
builds and lookups), and ``CauchyName`` (approximations).  A callable counts
one call per outermost invocation: a truncated function that evaluates its
base counts once.  The time spent inside a counted callable is booked to the
callable's own layer and taken out of the span that called it.  Output bits
are the exception: they are only counted, because they run only inside the
ttmeasures tally enumeration, which already books their time to ttmeasures,
and timing millions of one-line calls would swamp the run.

Self time.  A span's self time is its duration minus the part of it covered
by child spans (their union, so the overlapping children of a two-worker
``labcli report`` count once) minus the time of counted callables called
directly inside it.  Spans are kept in memory and written out once the run
has ended.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

from canon import metric

perf_counter = time.perf_counter

# functions whose calls give a work ratio: counter, and the size of the
# level the call covers, from its bound arguments
RATIOS = {
    "ttmeasures.transport_pushforward_check": ("mass", lambda a: 2 ** a["depth"]),
    "martingales.check_fairness": ("value", lambda a: 2 ** a["depth"] - 1),
    "martingales.savings_transform": ("value", lambda a: 2 ** a["depth"] - 1),
    "markov.oscillation_tree": ("eval", lambda a: 2 ** (a["depth"] + 4)),
}


class Frame:
    __slots__ = ("span", "layer", "inner", "is_span")

    def __init__(self, span, layer, is_span):
        self.span = span          # id of this span, or of the nearest enclosing one
        self.layer = layer        # layer of the nearest enclosing span
        self.inner = 0.0          # time of counted callables directly inside
        self.is_span = is_span


class ThreadState:
    def __init__(self):
        self.stack: list[Frame] = []
        self.counts = collections.Counter()
        self.active = collections.Counter()
        self.callable_self = collections.Counter()


class CountingTally(dict):
    """A TTFunctional tally cache that counts enumerations and reads."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def get(self, key, default=None):
        if self._tracer.enabled:
            self._tracer.thread().counts["tally_lookups"] += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        if self._tracer.enabled:
            self._tracer.thread().counts["tally_builds"] += 1
        super().__setitem__(key, value)


class Tracer:
    def __init__(self, lab, layers):
        self.lab = lab
        self.layers = layers
        self.enabled = False
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._threads: list[ThreadState] = []
        self._lock = threading.Lock()
        self._main = self.thread()
        self._patched: list[tuple] = []

    def thread(self) -> ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    # --- spans -----------------------------------------------------------

    def _enter(self, name, layer):
        th = self.thread()
        parent = th.stack[-1] if th.stack else None
        if parent is None and th is not self._main and self._main.stack:
            # a worker thread of `labcli report`: its spans belong to the
            # span the main thread is blocked in
            parent_span = self._main.stack[-1].span
        else:
            parent_span = parent.span if parent is not None else None
        frame = Frame(next(self._ids), layer, True)
        th.stack.append(frame)
        return th, parent, parent_span, frame

    def _exit(self, th, parent, parent_span, frame, name, t0, t1):
        th.stack.pop()
        in_callable = parent is not None and not parent.is_span
        if in_callable:
            parent.inner += t1 - t0
        self.spans.append((frame.span, parent_span, self.op_id, name, frame.layer,
                           t0, t1, frame.inner, in_callable))

    @contextlib.contextmanager
    def op_span(self, cls, layer):
        self.op_id = next(self._ops)
        th, parent, parent_span, frame = self._enter("op." + cls, layer)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(th, parent, parent_span, frame, "op." + cls, t0, perf_counter())

    def wrap(self, fn, name):
        tracer = self
        layer = name.split(".")[0]
        ratio = RATIOS.get(name)
        signature = inspect.signature(fn) if ratio else None
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            th, parent, parent_span, frame = tracer._enter(name, layer)
            if ratio:
                before = th.counts[ratio[0]]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._exit(th, parent, parent_span, frame, name, t0, t1)
            if ratio:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                th.counts[name + ":" + ratio[0]] += th.counts[ratio[0]] - before
                th.counts[name + ":size"] += ratio[1](bound.arguments)
            if hook is not None:
                result = hook(tracer, th, result)
            return result

        return traced

    def install(self):
        """Patch every public function of each layer, wherever it is bound."""
        wrappers = {}
        for layer in self.layers:
            mod = getattr(self.lab, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "randlab" or mod_name.startswith("randlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    # --- counted callables ----------------------------------------------

    def counting(self, fn, kind, layer):
        tracer = self

        def counted(*args):
            if not tracer.enabled:
                return fn(*args)
            th = tracer.thread()
            parent = th.stack[-1] if th.stack else None
            if th.active[kind] == 0:
                th.counts[kind] += 1
                if kind == "eval" and parent is not None and parent.layer == "derivatives":
                    th.counts["eval@derivatives"] += 1
            th.active[kind] += 1
            frame = Frame(parent.span if parent else None,
                          parent.layer if parent else layer, False)
            th.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - t0
                th.stack.pop()
                th.active[kind] -= 1
                th.callable_self[layer] += elapsed - frame.inner
                if parent is not None:
                    parent.inner += elapsed

        return counted

    def counting_only(self, fn, kind):
        tracer = self

        def counted(*args):
            if tracer.enabled:
                tracer.thread().counts[kind] += 1
            return fn(*args)

        return counted

    # --- results ----------------------------------------------------------

    def counters(self) -> dict:
        total = collections.Counter()
        for th in self._threads:
            total.update(th.counts)
        names = collections.Counter(s[3] for s in self.spans)
        total.update({"span:" + k: v for k, v in names.items()})
        return dict(sorted(total.items()))

    def self_times(self) -> collections.Counter:
        children = collections.defaultdict(list)
        for sid, parent, _, _, _, t0, t1, _, in_callable in self.spans:
            # a span called from a counted callable is already inside the
            # callable's time, which its enclosing span subtracts
            if parent is not None and not in_callable:
                children[parent].append((t0, t1))
        out = collections.Counter()
        for sid, _, _, _, layer, t0, t1, inner, _ in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[layer] += (t1 - t0) - covered - inner
        for th in self._threads:
            out.update(th.callable_self)
        return out

    def layer_metrics(self) -> dict:
        c = self.counters()
        selfs = self.self_times()

        def ratio(fn):
            kind = RATIOS[fn][0]
            size = c.get(fn + ":size", 0)
            return c.get(fn + ":" + kind, 0) / size if size else 0.0

        def spans(prefix):
            return sum(v for k, v in c.items() if k.startswith("span:" + prefix))

        node_calls = sum(c.get(f"martingales.{f}:value", 0) for f in ("check_fairness", "savings_transform"))
        nodes = sum(c.get(f"martingales.{f}:size", 0) for f in ("check_fairness", "savings_transform"))
        sweep = sum(t1 - t0 for _, _, _, name, _, t0, t1, _, _ in self.spans
                    if name == "intervals.coverage_at_least")
        m = {}
        for layer in self.layers:
            m[f"{layer}.self_s"] = metric(selfs.get(layer, 0.0), "s")
        m.update({
            "ttmeasures.mass_calls": metric(c.get("mass", 0), "count"),
            "ttmeasures.mass_calls_per_cylinder": metric(ratio("ttmeasures.transport_pushforward_check"), "ratio"),
            "ttmeasures.cdf_calls": metric(c.get("span:ttmeasures.cdf", 0), "count"),
            "ttmeasures.transport_calls": metric(c.get("span:ttmeasures.transport", 0), "count"),
            "ttmeasures.tally_builds": metric(c.get("tally_builds", 0), "count"),
            "ttmeasures.tally_output_bit_calls": metric(c.get("output_bit", 0), "count"),
            "ttmeasures.tally_lookups": metric(c.get("tally_lookups", 0), "count"),
            "martingales.value_calls": metric(c.get("value", 0), "count"),
            "martingales.value_calls_per_node": metric(node_calls / nodes if nodes else 0.0, "ratio"),
            "markov.eval_calls": metric(c.get("eval", 0), "count"),
            "markov.evals_per_grid_point": metric(ratio("markov.oscillation_tree"), "ratio"),
            "derivatives.eval_calls": metric(c.get("eval@derivatives", 0), "count"),
            "cauchy.approx_calls": metric(c.get("approx", 0), "count"),
            "intervals.coverage_sweep_s": metric(sweep, "s"),
            "intervals.normalize_calls": metric(c.get("span:intervals.normalize_union", 0), "count"),
            "randomness.calls": metric(spans("randomness."), "count"),
            "serialize.report_bytes": metric(c.get("report_bytes", 0), "B"),
            "trace.spans": metric(len(self.spans), "count"),
        })
        return dict(sorted(m.items()))

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "layer", "start_s",
                                            "end_s", "callable_s", "in_callable"]}) + "\n")
            for sid, parent, op, name, layer, t0, t1, inner, in_callable in self.spans:
                fh.write(json.dumps([sid, parent, op, name, layer, round(t0 - origin, 9),
                                     round(t1 - origin, 9), round(inner, 9), in_callable]) + "\n")
        return path


def _wrap_result(method):
    return lambda tracer, th, result: getattr(Context(tracer, tracer.lab), method)(result)


def _count_bytes(tracer, th, text):
    th.counts["report_bytes"] += len(text.encode("utf-8"))
    return text


# objects the CLI builds from fixtures get the same counting wrappers as the
# objects the benchmark builds itself
RESULT_HOOKS = {
    "serialize.measure_from_json": _wrap_result("measure"),
    "serialize.martingale_from_json": _wrap_result("martingale"),
    "serialize.name_from_json": _wrap_result("name"),
    "serialize.canonical_json": _count_bytes,
}


class Context:
    """The traced context: rebuilds each object around counting callables."""

    def __init__(self, tracer, lab):
        self.tracer = tracer
        self.lab = lab

    def measure(self, mu):
        return self.lab.ttmeasures.CylinderMeasure(
            mu.name, self.tracer.counting(mu.mass, "mass", "ttmeasures"))

    def martingale(self, m):
        return self.lab.martingales.Martingale(
            m.name, self.tracer.counting(m.value_at, "value", "martingales"), m.depth_budget)

    def function(self, f):
        return dataclasses.replace(f, eval_at=self.tracer.counting(f.eval_at, "eval", "markov"))

    def functional(self, phi):
        return dataclasses.replace(
            phi,
            output_bit=self.tracer.counting_only(phi.output_bit, "output_bit"),
            _tally=CountingTally(self.tracer),
        )

    def name(self, z):
        return self.lab.cauchy.CauchyName(
            self.tracer.counting(z.approx, "approx", "cauchy"), z.provenance, z.exact)

    @contextlib.contextmanager
    def paused(self):
        was, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = was
