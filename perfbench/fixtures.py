"""Seeded fixture bundles for the interval_tests workload.

A bundle is one directory of labcli fixtures: one test family of each kind
the CLI verifies (ML, Schnorr, Solovay, interval-sequence, finitely-bounded,
Demuth), plus a measure, a martingale and a scripted Cauchy name.  Bundle
``b`` is a pure function of ``b``, so the digests of every op on every
bundle can be frozen once; a run's seed only picks which bundles it writes.

Every family is valid by construction: the parts of a component sit in
distinct slots of width 1/16, so they neither overlap nor touch and a
component's measure is the plain sum of its part lengths, which is kept
under the kind's bound without asking the lab to compute it.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

BUNDLE_COUNT = 32
FILES = (
    "ml.json",
    "schnorr.json",
    "solovay.json",
    "interval_seq.json",
    "fin_bounded.json",
    "demuth.json",
    "measure.json",
    "martingale.json",
    "name.json",
)
# (components, parts per component) of each family kind: the same in every
# bundle, so that every bundle costs the same to verify
SHAPES = {"ml": (24, 16), "schnorr": (16, 12), "fin_bounded": (12, 8), "demuth": (8, 4),
          "solovay": (16, 8)}
# interval-sequence blocks: m in 1..3, r in 1..5, parts per block
IS_SHAPE = (3, 5, 10)
NAME_SCRIPT_LENGTH = 52


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _open(lo: Fraction, hi: Fraction) -> str:
    return f"({_q(lo)},{_q(hi)})"


def _parts(rng: random.Random, count: int, max_len: Fraction) -> list[tuple[Fraction, Fraction]]:
    """`count` disjoint open intervals, each no longer than max_len <= 1/32."""
    out = []
    for slot in sorted(rng.sample(range(16), count)):
        lo = Fraction(slot, 16) + Fraction(rng.randrange(32), 1024)
        length = max_len * Fraction(rng.randint(1, 4), 4)
        out.append((lo, lo + length))
    return out


def _measure(parts) -> Fraction:
    return sum((hi - lo for lo, hi in parts), Fraction(0))


def _geometric_components(rng, n_comp, n_parts):
    """Component m (1..n_comp) of measure <= 2^-m: n_parts parts of length
    <= 2^-(m+4), n_parts <= 16."""
    return {
        m: _parts(rng, n_parts, Fraction(1, 2 ** (m + 4)))
        for m in range(1, n_comp + 1)
    }


def _family(kind, label, components, kind_data):
    return {
        "type": "test_family",
        "schema": "0.1.0",
        "kind": kind,
        "label": label,
        "components": {
            str(m): [[_open(lo, hi) for lo, hi in version] for version in versions]
            for m, versions in components.items()
        },
        "kind_data": kind_data,
    }


def bundle_docs(bundle: int) -> dict[str, dict]:
    """The fixture documents of one bundle, by file name."""
    rng = random.Random(f"interval_tests:bundle:{bundle}")
    docs: dict[str, dict] = {}

    comps = _geometric_components(rng, *SHAPES["ml"])
    docs["ml.json"] = _family(
        "ML", f"ml_{bundle}", {m: [p] for m, p in comps.items()}, {}
    )

    comps = _geometric_components(rng, *SHAPES["schnorr"])
    docs["schnorr.json"] = _family(
        "SCHNORR",
        f"schnorr_{bundle}",
        {m: [p] for m, p in comps.items()},
        {"declared_measures": {str(m): _q(_measure(p)) for m, p in comps.items()}},
    )

    n_comp, n_parts = SHAPES["solovay"]
    comps = {m: _parts(rng, n_parts, Fraction(1, 32)) for m in range(1, n_comp + 1)}
    total = sum((_measure(p) for p in comps.values()), Fraction(0))
    bound = -((-total.numerator) // total.denominator)
    docs["solovay.json"] = _family(
        "SOLOVAY",
        f"solovay_{bundle}",
        {m: [p] for m, p in comps.items()},
        {"total_bound": f"{bound}/1"},
    )

    n_m, n_r, n_parts = IS_SHAPE
    blocks = []
    for m in range(1, n_m + 1):
        for r in range(1, n_r + 1):
            live = _parts(rng, n_parts, Fraction(1, 2 ** (m + r + 4)))
            # one wide interval per block, excised by E^m_r, so the bound
            # holds only because the exclusion is honoured
            wide = (Fraction(0), Fraction(1, 2))
            table = {str(k): _open(lo, hi) for k, (lo, hi) in enumerate(live + [wide])}
            blocks.append({"m": m, "r": r, "table": table, "excluded": [len(live)]})
    docs["interval_seq.json"] = _family(
        "INTERVAL_SEQUENCE", f"interval_seq_{bundle}", {}, {"blocks": blocks}
    )

    comps = _geometric_components(rng, *SHAPES["fin_bounded"])
    docs["fin_bounded.json"] = _family(
        "FINITELY_BOUNDED", f"fin_bounded_{bundle}", {m: [p] for m, p in comps.items()}, {}
    )

    n_comp, n_parts = SHAPES["demuth"]
    versions = {
        m: [_parts(rng, n_parts, Fraction(1, 2 ** (m + 4))) for _ in range(2)]
        for m in range(1, n_comp + 1)
    }
    update_m = rng.randint(1, n_comp)
    doc = _family(
        "DEMUTH",
        f"demuth_{bundle}",
        versions,
        {"budgets": {str(m): 3 for m in versions}},
    )
    doc["updates"] = [
        {
            "m": update_m,
            "union": [
                _open(lo, hi)
                for lo, hi in _parts(rng, n_parts, Fraction(1, 2 ** (update_m + 4)))
            ],
        }
    ]
    docs["demuth.json"] = doc

    p = rng.choice(("1/2", "3/4", "2/3", "3/5"))
    docs["measure.json"] = {"type": "measure", "rule": "bernoulli", "p": p}

    docs["martingale.json"] = {
        "type": "martingale", "rule": "split_bet", "p": rng.choice(("1/2", "3/4", "2/3", "3/5"))
    }

    # a point of denominator 3^5 never sits on a dyadic endpoint, so every
    # membership query decides within the evaluation precision budget
    x = Fraction(rng.randrange(1, 243), 243)
    values = [
        Fraction(int(x * 2 ** (n + 1)), 2 ** (n + 1)) for n in range(NAME_SCRIPT_LENGTH)
    ]
    docs["name.json"] = {
        "type": "cauchy_name",
        "provenance": f"bundle_{bundle}",
        "values": [_q(v) for v in values],
    }
    return docs


def write_bundle(root: str, bundle: int) -> str:
    path = os.path.join(root, f"bundle_{bundle:02d}")
    os.makedirs(path, exist_ok=True)
    for name, doc in bundle_docs(bundle).items():
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    return path
