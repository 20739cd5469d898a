#!/usr/bin/env python3
"""Closed-loop benchmark of the randlab exact-arithmetic lab.

    python3 perfbench/run.py --workload cantor_levels --seed 1 --seconds 20 --trace 0

One process, one client: each op starts when the previous one has returned.
The lab is imported from ``src/`` of the checkout this file sits in, and
its public functions and ``randlab.cli.main`` are called in-process.

``--trace 0`` times whole blocks of ops until ``--seconds`` have passed
(and at least 100 ops ran) and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of blocks twice, untraced and then traced
(see tracing.py), and prints the per-layer metrics.  Every op's result is
digested and compared with the digest frozen in digests.json.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
WORKDIR = os.path.join(WORK_ROOT, str(os.getpid()))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

# randlab modules in import-dependency order; also the benchmark's layer names
LAYERS = ("intervals", "cauchy", "markov", "derivatives", "randomness",
          "martingales", "ttmeasures", "serialize", "cli")
SETUP_REPEATS = 7
MIN_OPS = 100
# blocks the traced run makes, untraced and then traced; fixed, so that two
# traced runs with one seed do the same work and count the same
TRACE_BLOCKS = 2

import canon  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import speed  # noqa: E402
import workloads  # noqa: E402


class Lab:
    """The randlab layer modules of one import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "randlab" or m.startswith("randlab.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module("randlab." + layer))
        origin = os.path.dirname(os.path.abspath(self.cli.__file__))
        if origin != os.path.join(SRC, "randlab"):
            raise ImportError(f"randlab was imported from {origin}, not from {SRC}")


@dataclass
class OpRecord:
    key: str
    cls: str
    start: float
    seconds: float
    digest: str
    ok: bool
    scaled: float = 0.0  # seconds on the reference host, see speed.py


_reported_errors: set = set()


def run_op(workload, lab, ctx, state, spec, frozen, tracer=None) -> OpRecord:
    key, cls = canon.spec_key(spec), spec[0]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            value, check = workload.run(lab, ctx, state, spec)
            t1 = time.perf_counter()
        else:
            with tracer.op_span(cls, workload.layers[cls]):
                value, check = workload.run(lab, ctx, state, spec)
                t1 = time.perf_counter()
        with ctx.paused():
            payload, invariant = check()
            digest = canon.digest(payload)
    except Exception as exc:  # a failing op is counted, and the loop goes on
        t1 = time.perf_counter()
        digest = f"error:{type(exc).__name__}"
        invariant = False
        if cls not in _reported_errors:
            _reported_errors.add(cls)
            sys.stderr.write(f"perfbench: op {key} raised\n{traceback.format_exc()}")
    ok = bool(invariant) and (frozen is None or frozen.get(key) == digest)
    return OpRecord(key, cls, t0, t1 - t0, digest, ok)


def run_blocks(workload, lab, ctx, state, slots, seed, frozen, stop, tracer=None):
    """Run whole blocks from block 0 until stop(blocks, ops, elapsed) holds,
    probing the host's speed between ops."""
    records: list[OpRecord] = []
    probe = speed.SpeedProbe()
    started = time.perf_counter()
    index = 0
    while True:
        for spec in workload.block(slots, seed, index):
            records.append(run_op(workload, lab, ctx, state, spec, frozen, tracer))
            probe.maybe_sample()
        index += 1
        if stop(index, len(records), time.perf_counter() - started):
            break
    probe.sample()
    for r in records:
        r.scaled = r.seconds * probe.factor(r.start, r.start + r.seconds)
    return records, index, probe


def pool_specs(slots):
    return {s for _, pool in slots for s in pool}


def setup(workload, seed, frozen):
    """Import, seeded input generation, fixture files and warm-up, repeated;
    returns the median time and the last repetition's lab and state."""
    raw, scaled, warm = [], [], []
    lab = state = workdir = None
    probe = speed.SpeedProbe()
    for i in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = os.path.join(WORKDIR, f"setup-{i}")
        t0 = time.perf_counter()
        lab = Lab()
        slots = workload.slots(seed)
        state = workload.prepare(lab, workloads.PLAIN, workdir, pool_specs(slots))
        warm = [
            run_op(workload, lab, workloads.PLAIN, state, spec, frozen)
            for spec in workload.block(slots, seed, 0)
            if spec[0] in workload.warmup_classes
        ]
        t1 = time.perf_counter()
        probe.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * probe.factor(t0, t1))
    setup_s = {"seconds": statistics.median(raw), "scaled": statistics.median(scaled)}
    return setup_s, lab, state, slots, warm


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_at(records, q):
    """The op class of the record at latency percentile q."""
    ranked = sorted(records, key=lambda r: r.scaled)
    return ranked[min(len(ranked) - 1, int(len(ranked) * q / 100))].cls


def throughput(records, attr="scaled"):
    return sum(r.ok for r in records) / sum(getattr(r, attr) for r in records)


def end_to_end(records, setup_s, attr):
    lat_ms = [getattr(r, attr) * 1000 for r in records]
    return {
        "ops_per_s": canon.metric(throughput(records, attr), "ops/s"),
        "latency_p50_ms": canon.metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": canon.metric(percentile(lat_ms, 90), "ms"),
        "setup_s": canon.metric(setup_s[attr], "s"),
    }


def write_record(name, doc):
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def timed_run(workload, args, frozen):
    setup_s, lab, state, slots, warm = setup(workload, args.seed, frozen)
    deadline = args.seconds
    records, blocks, probe = run_blocks(
        workload, lab, workloads.PLAIN, state, slots, args.seed, frozen,
        lambda b, n, elapsed: elapsed >= deadline and n >= MIN_OPS,
    )
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = warm + records
    failed = sum(not r.ok for r in checked)
    metrics = end_to_end(records, setup_s, "scaled")
    metrics["peak_rss_mb"] = canon.metric(rss_mib, "MiB")
    raw = end_to_end(records, setup_s, "seconds")
    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 client  "
          f"{len(records)} ops in {blocks} blocks  ({len(warm)} warm-up ops)")
    print(f"  {'metric':16s} {'reference host':>14s} {'raw':>14s}")
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']:14.4f} {raw.get(name, m)['value']:14.4f} {m['unit']}")
    print(f"  {'fail_ratio':16s} {failed / len(checked):14.4f} -   ({failed}/{len(checked)})")
    print(f"  p50 falls in class {class_at(records, 50)}, p90 in class {class_at(records, 90)}")
    write_record(f"run-{workload.name}-seed{args.seed}.json", {
        "workload": workload.name, "seed": args.seed, "metrics": metrics,
        "raw_metrics": raw,
        "ops": [[r.key, r.digest, r.ok, r.seconds, r.scaled, r.start] for r in checked],
        "probe": [probe.times, probe.kernel],
    })
    return checked, metrics


def traced_run(workload, args, frozen):
    import tracing

    _, lab, state, slots, warm = setup(workload, args.seed, frozen)

    def stop(b, n, elapsed):
        return b >= TRACE_BLOCKS

    plain, _, _ = run_blocks(workload, lab, workloads.PLAIN, state, slots, args.seed, frozen, stop)
    tracer = tracing.Tracer(lab, LAYERS)
    ctx = tracing.Context(tracer, lab)
    workdir = os.path.join(WORKDIR, "traced")
    tracer.install()
    try:
        traced_state = workload.prepare(lab, ctx, workdir, pool_specs(slots))
        tracer.enabled = True
        traced, _, _ = run_blocks(
            workload, lab, ctx, traced_state, slots, args.seed, frozen, stop, tracer
        )
        tracer.enabled = False
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["cli.report_workers1_s"] = canon.metric(_median_of(traced, "report_workers1"), "s")
    metrics["cli.report_workers2_s"] = canon.metric(_median_of(traced, "report_workers2"), "s")
    untraced_rate, traced_rate = throughput(plain), throughput(traced)
    metrics["trace.ops_per_s_untraced"] = canon.metric(untraced_rate, "ops/s")
    metrics["trace.ops_per_s_traced"] = canon.metric(traced_rate, "ops/s")
    metrics["trace.overhead"] = canon.metric(untraced_rate / traced_rate, "x")
    base = f"trace-{workload.name}-seed{args.seed}"
    spans_path = tracer.write_spans(os.path.join(OUT_ROOT, base + ".spans.jsonl"))
    write_record(base + ".json", {
        "workload": workload.name, "seed": args.seed, "blocks": TRACE_BLOCKS,
        "metrics": metrics, "counters": tracer.counters(),
        "ops": [[r.key, r.digest, r.ok] for r in plain + traced],
        "spans": os.path.relpath(spans_path, ROOT),
    })
    print(f"workload {workload.name}  seed {args.seed}  traced: {TRACE_BLOCKS} blocks untraced, "
          f"then the same {TRACE_BLOCKS} traced  ({len(traced)} ops each)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    print(f"  spans: {spans_path}")
    return warm + plain + traced, metrics


def _median_of(records, cls):
    times = [r.seconds for r in records if r.cls == cls]
    return statistics.median(times) if times else 0.0


def load_frozen(workload):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "randlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no randlab package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    try:
        frozen = load_frozen(args.workload)
        run = traced_run if args.trace else timed_run
        checked, metrics = run(workload, args, frozen)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    failed = sum(not r.ok for r in checked)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
