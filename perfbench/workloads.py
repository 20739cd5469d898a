"""The four seeded workloads of the randlab benchmark.

Each workload is a stream of blocks.  A block holds a fixed number of ops
from each slot, and the run's seed picks every op's inputs from that slot's
pool and shuffles the block.  The inputs of one slot differ only in what
does not set an op's cost (a bias, a target prefix, which bits), while the
sizes that do (depth, length, grid) are fixed per slot.  So every block has
the same cost profile, a run that completes more blocks measures the same
distribution of work, and the latency percentiles land in the same place on
every seed.

A block has N ops with N an odd multiple of 5, so that 0.5*N and 0.9*N fall
half-way inside one rank of the block's cost order rather than between two:
p50 lands on the middle of the light class and p90 on the middle of the
heavy class.

Every pool is finite and fixed, so ``catalogue()`` lists every op any seed
can produce and ``freeze.py`` can record the digest of each one.

An op returns ``(value, check)``.  Only the op is timed; ``check()`` runs
afterwards and returns the payload that is digested and whether the lab's
own invariants held.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

import fixtures

P4 = ("1/2", "3/4", "2/3", "3/5")
TRANSPORT_LENGTHS = (4, 6, 8, 10, 13, 16, 18, 20)
SPLIT_BETS = tuple(f"split_bet:{p}" for p in P4)
FLAT_MARTINGALES = ("all_in_on_0", "constant:1", "constant:3/2", "constant:2")


def bits(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


def level(length: int) -> list[str]:
    return [bits(i, length) for i in range(2**length)]


class Plain:
    """The untraced context: hands every object to the lab unchanged."""

    def measure(self, mu):
        return mu

    martingale = function = functional = name = measure

    def paused(self):
        return contextlib.nullcontext()


PLAIN = Plain()


class Workload:
    name = ""
    # op class -> the module whose code the op's own frame runs; the traced
    # run books that frame's self time to this layer
    layers: dict[str, str] = {}
    # op classes cheap enough to run once each during set-up as warm-up
    warmup_classes: frozenset = frozenset()

    def slots(self, seed: int) -> list[tuple[int, tuple]]:
        """(ops per block, pool of specs) for each slot."""
        raise NotImplementedError

    def catalogue(self) -> list[tuple]:
        """Every spec that any seed can produce."""
        return sorted({s for _, pool in self.slots(0) for s in pool}, key=str)

    def prepare(self, lab, ctx, workdir: str, specs) -> object:
        """Inputs that ops share: warm tallies, fixture files."""
        return None

    def block(self, slots, seed: int, index: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = [rng.choice(pool) for count, pool in slots for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def run(self, lab, ctx, state, spec: tuple):
        return getattr(self, "op_" + spec[0])(lab, ctx, state, *spec[1:])


def martingale(lab, spec: str):
    kind, _, arg = spec.partition(":")
    mg = lab.martingales
    if kind == "split_bet":
        return mg.split_bet(Fraction(arg))
    if kind == "constant":
        return mg.constant_martingale(Fraction(arg))
    return mg.all_in_on_0()


class CantorLevels(Workload):
    """Whole-level walks over {0,1}^{<=d}: cylinder masses and capitals."""

    name = "cantor_levels"
    layers = {
        "pushforward": "ttmeasures",
        "validate_measure": "ttmeasures",
        "monotone_cdf": "ttmeasures",
        "transport": "ttmeasures",
        "level_sum_measure": "ttmeasures",
        "fairness": "martingales",
        "savings_transform": "martingales",
        "violation_search": "martingales",
        "growth_constants": "martingales",
        "level_sum_martingale": "martingales",
    }
    warmup_classes = frozenset({"transport", "level_sum_measure", "level_sum_martingale"})

    def slots(self, seed):
        taus = [bits(n, k) for k in (1, 2, 3) for n in range(2**k)]
        rng = random.Random("cantor_levels:prefixes")
        transports = [
            (1, tuple(("transport", p, bits(rng.getrandbits(n), n)) for _ in range(8)))
            for p in P4
            for n in TRANSPORT_LENGTHS
        ]
        return transports + [
            (1, tuple(("pushforward", p, t, 10) for p in P4 for t in taus)),
            (1, tuple(("pushforward", p, t, 11) for p in P4 for t in taus)),
            (1, tuple(("validate_measure", p, 12) for p in P4)),
            (1, tuple(("validate_measure", p, 13) for p in P4)),
            (1, tuple(("fairness", m, 12) for m in SPLIT_BETS)),
            (1, tuple(("savings_transform", m, 12) for m in SPLIT_BETS)),
            (1, tuple(("violation_search", m, 12) for m in FLAT_MARTINGALES)),
            (1, tuple(("growth_constants", m, 10) for m in SPLIT_BETS)),
            (1, tuple(("monotone_cdf", p, 10) for p in P4)),
            (2, tuple(("fairness", m, 13) for m in FLAT_MARTINGALES)),
            (1, tuple(("level_sum_measure", p, 8) for p in P4)),
            (1, tuple(("level_sum_martingale", m, 7) for m in SPLIT_BETS)),
        ]

    def _mu(self, lab, ctx, p):
        return ctx.measure(lab.ttmeasures.bernoulli_measure(Fraction(p)))

    def op_pushforward(self, lab, ctx, state, p, tau, depth):
        r = lab.ttmeasures.transport_pushforward_check(self._mu(lab, ctx, p), tau, depth)
        return r, lambda: (r, r.passed)

    def op_validate_measure(self, lab, ctx, state, p, depth):
        checks = lab.ttmeasures.validate_measure(self._mu(lab, ctx, p), depth)
        return checks, lambda: (checks, all(c.passed for c in checks))

    def op_monotone_cdf(self, lab, ctx, state, p, depth):
        ok = lab.ttmeasures.MonotoneCDF(self._mu(lab, ctx, p), depth).is_monotone()
        return ok, lambda: (ok, ok is True)

    def op_transport(self, lab, ctx, state, p, prefix):
        r = lab.ttmeasures.transport(self._mu(lab, ctx, p), prefix)
        return r, lambda: (r, r.image_lo < r.image_hi)

    def op_level_sum_measure(self, lab, ctx, state, p, depth):
        mu = self._mu(lab, ctx, p)
        masses = [mu(s) for s in level(depth)]
        return masses, lambda: (masses, sum(masses) == 1)

    def op_fairness(self, lab, ctx, state, m, depth):
        r = lab.martingales.check_fairness(ctx.martingale(martingale(lab, m)), depth)
        return r, lambda: (r, r.ok)

    def op_savings_transform(self, lab, ctx, state, m, depth):
        saved = lab.martingales.savings_transform(ctx.martingale(martingale(lab, m)), depth)

        def check():
            leaves = [saved.value(s) for s in level(depth)]
            return leaves, sum(leaves) == 2**depth * saved.initial_capital

        return saved, check

    def op_violation_search(self, lab, ctx, state, m, depth):
        mg = lab.martingales
        saved = ctx.martingale(mg.savings_transform(ctx.martingale(martingale(lab, m)), depth))
        hit = mg.savings_violation_search(saved, depth)
        return hit, lambda: (hit, hit is None)

    def op_growth_constants(self, lab, ctx, state, m, depth):
        mg = lab.martingales
        base = ctx.martingale(martingale(lab, m))
        saved = ctx.martingale(mg.savings_transform(base, depth))
        c, const = mg.savings_growth_constants(base, saved, depth)
        return (c, const), lambda: ((c, const), c == base.initial_capital and const >= 0)

    def op_level_sum_martingale(self, lab, ctx, state, m, depth):
        mart = ctx.martingale(martingale(lab, m))
        values = [mart.value(s) for s in level(depth)]
        return values, lambda: (values, sum(values) == 2**depth * mart.initial_capital)


# warm functional -> the length its tally is built to at set-up
WARM_LENGTHS = {"pairwise_or": 7, "identity": 12, "ucf:half": 8}
# one warm cdf op tabulates g at 32 dyadics of 7 bits with three 1-bits
# each, so that every such op reads the same number of tallied masses
WARM_CDF_POINTS = 32
WARM_CDF_BITS = 7
LEVEL_6 = level(6)


def warm_cdf_points(w: str, i: int) -> tuple[Fraction, ...]:
    rng = random.Random(f"tt_tally:cdf:{w}:{i}")
    return tuple(
        Fraction(sum(1 << b for b in rng.sample(range(WARM_CDF_BITS), 3)), 2**WARM_CDF_BITS)
        for _ in range(WARM_CDF_POINTS)
    )


def functional(lab, ctx, spec: str):
    tt = lab.ttmeasures
    if spec.startswith("ucf:"):
        g = ctx.function(getattr(lab.markov, spec[4:] + "_fn")())
        return ctx.functional(tt.tt_from_ucf(g, 8))
    return ctx.functional(getattr(tt, spec + "_tt")())


class TTTally(Workload):
    """Cold tally enumerations interleaved with warm reads of tallied measures."""

    name = "tt_tally"
    layers = {"cold": "ttmeasures", "warm_cdf": "ttmeasures", "warm_transport": "ttmeasures",
              "warm_masses": "ttmeasures", "warm_monotone": "ttmeasures"}
    warmup_classes = frozenset({"warm_cdf", "warm_transport", "warm_masses", "warm_monotone"})

    def slots(self, seed):
        rng = random.Random("tt_tally:warm")
        warm = []
        for w, length, n_masses, n_cdf, n_monotone in (
            ("pairwise_or", 7, 3, 5, 2), ("identity", 12, 3, 5, 2), ("ucf:half", 8, 2, 5, 1)
        ):
            # the 64 cylinders of the tallied length below a seeded prefix
            above = length - 6
            warm.append((n_masses, tuple(("warm_masses", w, bits(rng.getrandbits(above), above))
                                         for _ in range(16))))
            warm.append((n_cdf, tuple(("warm_cdf", w, i) for i in range(16))))
            warm.append((n_monotone, (("warm_monotone", w, 6),)))
        # transport needs an image of positive length; tt(half) has zero-mass cylinders
        for w, length, count in (("pairwise_or", 7, 4), ("identity", 12, 3)):
            warm.append((count, tuple(("warm_transport", w, bits(rng.getrandbits(length), length))
                                      for _ in range(16))))
        cold = [
            (("cold", "pairwise_or", n),) for n in (6, 7, 8, 9)
        ] + [
            tuple(("cold", f, n) for f in ("identity", "bit_flip")) for n in (12, 13, 14)
        ] + [
            (("cold", "ucf:square", 7),),
            (("cold", "ucf:half", 8),),
            (("cold", "ucf:identity", 8),),
        ]
        return [(1, pool) for pool in cold] + warm

    def prepare(self, lab, ctx, workdir, specs):
        state = {"points": {(s[1], s[2]): warm_cdf_points(s[1], s[2])
                            for s in specs if s[0] == "warm_cdf"}}
        for w, length in WARM_LENGTHS.items():
            phi = functional(lab, ctx, w)
            mu = ctx.measure(lab.ttmeasures.materialize_measure(phi))
            checks = lab.ttmeasures.validate_measure(mu, length)
            if not all(c.passed for c in checks):
                raise RuntimeError(f"warm measure {w} fails validation")
            state[w] = (phi, mu)
        return state

    def op_cold(self, lab, ctx, state, f, length):
        mu = ctx.measure(lab.ttmeasures.materialize_measure(functional(lab, ctx, f)))
        checks = lab.ttmeasures.validate_measure(mu, length)

        def check():
            masses = [mu(s) for s in level(min(length, 8))]
            return (checks, masses), all(c.passed for c in checks)

        return checks, check

    def op_warm_masses(self, lab, ctx, state, w, sigma):
        phi = state[w][0]
        m = [lab.ttmeasures.induced_measure_of_cylinder(phi, sigma + s) for s in LEVEL_6]
        return m, lambda: (m, all(0 <= x <= 1 for x in m))

    def op_warm_cdf(self, lab, ctx, state, w, i):
        mu = state[w][1]
        g = [lab.ttmeasures.cdf(mu, d) for d in state["points"][w, i]]
        return g, lambda: (g, all(0 <= x <= 1 for x in g))

    def op_warm_monotone(self, lab, ctx, state, w, depth):
        ok = lab.ttmeasures.MonotoneCDF(state[w][1], depth).is_monotone()
        return ok, lambda: (ok, ok is True)

    def op_warm_transport(self, lab, ctx, state, w, prefix):
        r = lab.ttmeasures.transport(state[w][1], prefix)
        return r, lambda: (r, r.image_lo < r.image_hi)


def _polygon(i: int):
    rng = random.Random(f"function_grids:polygon:{i}")
    xs = sorted(rng.sample(range(1, 31), 4))
    return tuple(
        (Fraction(x, 32), Fraction(rng.randrange(65), 64)) for x in [0] + xs + [32]
    )


def _cover(i: int):
    """Two stages of short closed intervals in distinct eighths of [0, 1]."""
    rng = random.Random(f"function_grids:cover:{i}")
    slots = rng.sample(range(8), 5)
    ivs = []
    for j in slots:
        lo = Fraction(j, 8) + Fraction(rng.randrange(1, 32), 512)
        ivs.append((lo, lo + Fraction(rng.randint(1, 32), 1024)))
    return (ivs[:2], ivs[2:]), (0, 0)


POLYGONS = tuple(_polygon(i) for i in range(4))
COVERS = tuple(_cover(i) for i in range(4))
POINTS = ("1/3", "2/5", "3/7", "5/9", "4/7", "5/11", "7/12", "2/3")
# scripted names of points of denominator 3^5, whose scripts never sit on a
# dyadic, given to 32 binary places
NAME_SCRIPTS = tuple(
    tuple(Fraction(int(Fraction(a, 243) * 2 ** (k + 1)), 2 ** (k + 1)) for k in range(32))
    for a in (40, 55, 71, 88, 97, 110, 121, 133, 140, 151, 160, 166, 170, 175, 178, 181)
)
SMOOTH = ("square", "identity", "half", "abs_offset", "complement")
# grid bits minus scale bits fixes a pseudo-derivative's pair count (4^s)
PD_SIZES = {s: tuple((g, g - s) for g in (12, 13, 14) if 5 <= g - s <= 10) for s in (4, 7)}
# the p50 class: two size-4 pseudo-derivatives per function family per block
PD_GROUPS = (("square",), ("identity", "half", "complement"), ("abs_offset",),
             tuple(f"poly:{i}" for i in range(len(POLYGONS))), ("nonuc:20",))


def build_function(lab, ctx, spec: str):
    mk = lab.markov
    kind, _, arg = spec.partition(":")
    if kind == "nonuc":
        return ctx.function(mk.canonical_nonuc(int(arg)))
    if kind == "poly":
        return ctx.function(mk.polygonal_fn(POLYGONS[int(arg)]))
    if kind == "trunc":
        cover, _, base = arg.partition(":")
        return ctx.function(mk.truncate(build_function(lab, ctx, base), staged_cover(lab, int(cover))))
    return ctx.function(getattr(mk, kind + "_fn")())


def staged_cover(lab, i: int):
    stages, bounds = COVERS[i]
    iv = lab.intervals.RationalInterval
    return lab.markov.StagedCover(tuple(tuple(iv(lo, hi) for lo, hi in s) for s in stages), bounds)


class FunctionGrids(Workload):
    """Functions evaluated on dyadic grids; no cylinder measure is touched."""

    name = "function_grids"
    layers = {"oscillation_tree": "markov", "slope_bounds": "markov",
              "extension": "markov", "pseudo_derivative": "derivatives"}
    warmup_classes = frozenset({"extension", "pseudo_derivative"})

    def slots(self, seed):
        ns = (-1, 0, 1, 2)
        fns = SMOOTH + tuple(f"poly:{i}" for i in range(len(POLYGONS))) + ("nonuc:20",)
        def pd(s, group):
            return (1, tuple(("pseudo_derivative", f, z, g, e)
                             for f in group for z in POINTS for g, e in PD_SIZES[s]))

        return [
            (1, tuple(("oscillation_tree", "nonuc:40", n, 11) for n in ns)),
            (1, tuple(("oscillation_tree", "nonuc:10", n, 12) for n in ns)),
            (1, tuple(("oscillation_tree", "square", n, 13) for n in ns)),
            (1, tuple(("oscillation_tree", f"trunc:{c}:nonuc:20", n, 11)
                      for c in range(len(COVERS)) for n in ns)),
            (1, tuple(("oscillation_tree", f"trunc:{c}:square", n, 12)
                      for c in range(len(COVERS)) for n in ns)),
        ] + [
            (1, tuple(("slope_bounds", f, c, grid) for f in ("square", "identity")
                      for c in range(len(COVERS))))
            for grid in (64, 90)
        ] + [pd(7, fns)] + [pd(4, group) for group in PD_GROUPS + PD_GROUPS] + [
            (7, tuple(("extension", f, z, n) for f in fns
                      for z in range(len(NAME_SCRIPTS)) for n in (12, 16, 20))),
        ]

    def op_oscillation_tree(self, lab, ctx, state, f, n, depth):
        tree = lab.markov.oscillation_tree(build_function(lab, ctx, f), n, depth)
        return tree, lambda: (tree, all(s == "" or s[:-1] in tree for s in tree))

    def op_slope_bounds(self, lab, ctx, state, f, cover, grid):
        w, z = (Fraction(0), Fraction(2)) if f == "square" else (Fraction(1, 2), Fraction(2))
        v = lab.markov.slope_bounds_check(
            build_function(lab, ctx, f), staged_cover(lab, cover), w, z, grid
        )
        return v, lambda: (v, v.passed)

    def op_pseudo_derivative(self, lab, ctx, state, f, z, grid, scale_bits):
        dv = lab.derivatives
        est = dv.pseudo_derivative(
            build_function(lab, ctx, f),
            ctx.name(lab.cauchy.const_name(Fraction(z))),
            Fraction(1, 2**scale_bits),
            grid,
        )
        verdict = dv.classify_denjoy(est, Fraction(1, 16))

        def check():
            finite = est.upper is None or est.lower is None or est.lower <= est.upper
            return (est, verdict), finite

        return est, check

    def op_extension(self, lab, ctx, state, f, z, n):
        name = ctx.name(lab.cauchy.scripted_name(NAME_SCRIPTS[z], f"point_{z}"))
        r = lab.markov.eval_extension(build_function(lab, ctx, f), name, n)
        return r, lambda: (r, r.interval.lo <= r.interval.hi)


FAMILIES = ("ml", "schnorr", "solovay", "fin_bounded", "demuth")
RUN_BUNDLES = 6


class IntervalTests(Workload):
    """labcli verify / evaluate / convert / report on seeded fixture bundles."""

    name = "interval_tests"
    layers = {c: "cli" for c in ("verify", "evaluate", "convert_is", "convert_solovay",
                                 "report_workers1", "report_workers2")}
    warmup_classes = frozenset({"verify", "evaluate", "convert_is"})

    def _slots(self, bundles):
        return [
            (5, tuple(("convert_solovay", b) for b in bundles)),
            (1, tuple(("report_workers1", b) for b in bundles)),
            (1, tuple(("report_workers2", b) for b in bundles)),
            (2, tuple(("convert_is", b) for b in bundles)),
        ] + [
            (1, tuple(("verify", b, f) for b in bundles)) for f in fixtures.FILES
        ] + [
            (1, tuple(("evaluate", b, f) for b in bundles)) for f in FAMILIES + ("ml", "schnorr")
        ]

    def slots(self, seed):
        rng = random.Random(f"interval_tests:bundles:{seed}")
        return self._slots(sorted(rng.sample(range(fixtures.BUNDLE_COUNT), RUN_BUNDLES)))

    def catalogue(self):
        return sorted({s for _, pool in self._slots(range(fixtures.BUNDLE_COUNT)) for s in pool}, key=str)

    def prepare(self, lab, ctx, workdir, specs):
        return {
            b: fixtures.write_bundle(workdir, b) for b in sorted({s[1] for s in specs})
        }

    def _cli(self, lab, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.main(argv)
        payload = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        return code, lambda: (payload, code == 0)

    def op_verify(self, lab, ctx, state, b, f):
        return self._cli(lab, ["verify", "--fixture", os.path.join(state[b], f)])

    def op_evaluate(self, lab, ctx, state, b, f):
        return self._cli(lab, [
            "evaluate", "--fixture", os.path.join(state[b], f + ".json"),
            "--name", os.path.join(state[b], "name.json"), "--depth", "24",
        ])

    def op_convert_is(self, lab, ctx, state, b):
        return self._cli(lab, ["convert", "--fixture", os.path.join(state[b], "interval_seq.json"),
                               "--depth", "5"])

    def op_convert_solovay(self, lab, ctx, state, b):
        return self._cli(lab, ["convert", "--fixture", os.path.join(state[b], "solovay.json"),
                               "--depth", "6"])

    def op_report_workers1(self, lab, ctx, state, b):
        return self._cli(lab, ["report", "--fixture-dir", state[b], "--workers", "1"])

    def op_report_workers2(self, lab, ctx, state, b):
        return self._cli(lab, ["report", "--fixture-dir", state[b], "--workers", "2"])


WORKLOADS = {w.name: w for w in (CantorLevels(), TTTally(), FunctionGrids(), IntervalTests())}
