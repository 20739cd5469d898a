#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selfcheck.py

1. Counter determinism: the traced run, made twice with the same seed,
   gives identical counters (every count, ratio and byte total).
2. The wrappers change no result: the ops of an untraced run and of the
   traced run with the same seed have identical digests.
3. The counters read the values they are documented to read on the seed
   code: 16,417 mass calls for the 1,024 cylinders of a depth-10
   Bernoulli(3/4) pushforward; 669,924 output-bit calls to validate
   pairwise_or to length 8; 65,536 evaluations for a depth-12 oscillation
   tree; 3 capital calls per node for fairness and the savings transform.

Checks 1 and 2 run every workload at seed 7.  Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracing
import workloads

COUNT_UNITS = {"count", "ratio", "B"}
SEED = 7


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"trace-{workload}-seed{seed}.json" if trace else f"run-{workload}-seed{seed}.json"
    with open(os.path.join(run.OUT_ROOT, name), encoding="utf-8") as fh:
        return result, json.load(fh)


def check_workload(workload, seed) -> list[str]:
    failures = []
    first, rec1 = _run(workload, seed, 5, 1)
    second, rec2 = _run(workload, seed, 5, 1)
    plain, rec0 = _run(workload, seed, 1, 0)
    for res in (first, second, plain):
        if not res["correct"]:
            failures.append(f"{workload}: {res['failed']} of {res['attempted']} ops failed")
    if rec1["counters"] != rec2["counters"]:
        diff = {k for k in rec1["counters"].keys() | rec2["counters"].keys()
                if rec1["counters"].get(k) != rec2["counters"].get(k)}
        failures.append(f"{workload}: counters differ between traced runs: {sorted(diff)}")
    for name, m in first["metrics"].items():
        if m["unit"] in COUNT_UNITS and m != second["metrics"][name]:
            failures.append(f"{workload}: {name} differs between traced runs")
    traced = {key: digest for key, digest, _ in rec1["ops"]}
    shared = [(key, digest) for key, digest, *_ in rec0["ops"] if key in traced]
    if not shared:
        failures.append(f"{workload}: no op in common between traced and untraced runs")
    for key, digest in shared:
        if traced[key] != digest:
            failures.append(f"{workload}: {key} digests differ traced vs untraced")
    print(f"{'PASS' if not failures else 'FAIL'} {workload}: counters repeat over two traced "
          f"runs; {len(shared)} op digests equal traced and untraced")
    return failures


def _traced_counts(spec_runs):
    """Run (workload, spec) pairs under a fresh tracer; return its counters."""
    lab = run.Lab()
    tracer = tracing.Tracer(lab, run.LAYERS)
    ctx = tracing.Context(tracer, lab)
    tracer.install()
    try:
        tracer.enabled = True
        for workload, spec in spec_runs:
            rec = run.run_op(workload, lab, ctx, None, spec, None, tracer)
            if not rec.ok:
                raise RuntimeError(f"{rec.key} failed: {rec.digest}")
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return tracer.counters()


def check_reference_counts() -> list[str]:
    w = workloads.WORKLOADS
    expected = {
        ("cantor_levels", ("pushforward", "3/4", "1", 10)): {
            "ttmeasures.transport_pushforward_check:mass": 16417,
            "ttmeasures.transport_pushforward_check:size": 1024,
        },
        ("tt_tally", ("cold", "pairwise_or", 8)): {"output_bit": 669924},
        ("function_grids", ("oscillation_tree", "nonuc:20", 0, 12)): {
            "markov.oscillation_tree:eval": 65536,
            "markov.oscillation_tree:size": 65536,
        },
        ("cantor_levels", ("fairness", "split_bet:3/4", 12)): {
            "martingales.check_fairness:value": 3 * (2**12 - 1),
            "martingales.check_fairness:size": 2**12 - 1,
        },
    }
    failures = []
    for (name, spec), want in expected.items():
        got = _traced_counts([(w[name], spec)])
        for key, value in want.items():
            ok = got.get(key) == value
            print(f"{'PASS' if ok else 'FAIL'} {'|'.join(map(str, spec))}: "
                  f"{key} = {got.get(key)} (expected {value})")
            if not ok:
                failures.append(f"{spec}: {key} = {got.get(key)}, expected {value}")
    return failures


def main() -> int:
    sys.path.insert(0, run.SRC)
    failures = check_reference_counts()
    for name in sorted(workloads.WORKLOADS):
        failures += check_workload(name, SEED)
    for f in failures:
        print("  " + f)
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
