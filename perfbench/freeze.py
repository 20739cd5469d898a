#!/usr/bin/env python3
"""Record the digest of every op any seed can produce, into digests.json.

    python3 perfbench/freeze.py

Runs each spec of each workload's catalogue once on the lab in ``src/`` and
stores the digest of its canonical result.  An op that raises or breaks a
lab invariant stops the freeze: the catalogue must hold only ops that pass.
The digests in the repository were frozen from the lab as it stood when the
benchmark was added; re-freezing is only right when a change is meant to
alter results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def freeze(workload) -> dict[str, str]:
    lab = run.Lab()
    specs = workload.catalogue()
    workdir = os.path.join(run.WORKDIR, workload.name)
    state = workload.prepare(lab, workloads.PLAIN, workdir, specs)
    out = {}
    started = time.perf_counter()
    for i, spec in enumerate(specs):
        rec = run.run_op(workload, lab, workloads.PLAIN, state, spec, None)
        if not rec.ok:
            raise SystemExit(f"freeze: {rec.key} fails ({rec.digest})")
        out[rec.key] = rec.digest
        if i % 200 == 0:
            sys.stderr.write(f"  {workload.name}: {i}/{len(specs)} "
                             f"({time.perf_counter() - started:.0f} s)\n")
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)
    frozen = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            frozen[name] = freeze(workloads.WORKLOADS[name])
            sys.stderr.write(f"{name}: {len(frozen[name])} digests\n")
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
