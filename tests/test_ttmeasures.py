import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randlab.cauchy import ModulusFunction
from randlab.errors import AtomSuspected, BudgetExceeded, ZeroMassCylinder
from randlab.markov import half_fn, identity_fn
from randlab.ttmeasures import (
    USE_BOUND_BUDGET,
    LimitOracle,
    MonotoneCDF,
    TransportStatus,
    bernoulli_measure,
    bit_flip_tt,
    cdf,
    identity_tt,
    induced_measure_of_cylinder,
    materialize_measure,
    pairwise_or_tt,
    table_measure,
    transport,
    transport_pushforward_check,
    tt_from_ucf,
    uniform_measure,
    validate_measure,
)

FUNCTIONALS = [identity_tt(), pairwise_or_tt(), bit_flip_tt()]

prefixes = st.text(alphabet="01", min_size=1, max_size=8)


def brute_force_preimage(phi, sigma: str) -> Fraction:
    # independent oracle: direct enumeration, no tally cache
    u = phi.use_bound(len(sigma) - 1)
    hits = 0
    for block in range(2**u):
        bits = tuple((block >> (u - 1 - i)) & 1 for i in range(u))
        out = "".join(str(phi.output_bit(bits, n)) for n in range(len(sigma)))
        if out == sigma:
            hits += 1
    return Fraction(hits, 2**u)


def test_pairwise_or_known_values():
    phi = pairwise_or_tt()
    assert induced_measure_of_cylinder(phi, "1") == Fraction(3, 4)
    assert induced_measure_of_cylinder(phi, "11") == Fraction(9, 16)
    assert brute_force_preimage(phi, "1") == Fraction(3, 4)
    assert brute_force_preimage(phi, "11") == Fraction(9, 16)


@pytest.mark.parametrize("phi", FUNCTIONALS, ids=lambda p: p.name)
@given(sigma=prefixes)
@settings(max_examples=30, deadline=None)
def test_induced_measure_matches_brute_force(phi, sigma):
    assert induced_measure_of_cylinder(phi, sigma) == brute_force_preimage(phi, sigma)


@pytest.mark.parametrize("phi", FUNCTIONALS, ids=lambda p: p.name)
def test_induced_measure_additivity(phi):
    mu = materialize_measure(phi)
    checks = validate_measure(mu, 6)
    assert all(c.passed for c in checks)


def test_identity_induces_uniform():
    phi = identity_tt()
    for i in range(16):
        s = format(i, "04b")
        assert induced_measure_of_cylinder(phi, s) == Fraction(1, 16)


def test_use_bound_budget_enforced():
    phi = pairwise_or_tt()  # use 2n+2 exceeds 24 at output length 12
    with pytest.raises(BudgetExceeded):
        induced_measure_of_cylinder(phi, "0" * 13)


def test_validate_measure_detects_leak():
    mu = table_measure(
        "leaky",
        {"": Fraction(1), "0": Fraction(1, 4), "1": Fraction(1, 4)},
    )
    checks = validate_measure(mu, 1)
    assert not all(c.passed for c in checks)


def test_cdf_uniform_is_identity():
    mu = uniform_measure()
    for i in range(17):
        d = Fraction(i, 16)
        assert cdf(mu, d) == d


def test_cdf_bernoulli_oracle_values():
    mu = bernoulli_measure(Fraction(3, 4))
    # mass below .111 = 1 - mu(111) = 1 - 27/64
    assert cdf(mu, Fraction(7, 8)) == Fraction(37, 64)
    assert cdf(mu, Fraction(1, 2)) == Fraction(1, 4)
    assert cdf(mu, Fraction(0)) == 0
    assert cdf(mu, Fraction(1)) == 1


def test_cdf_monotone_to_depth_12():
    g = MonotoneCDF(bernoulli_measure(Fraction(3, 4)), 12)
    assert g.is_monotone()


@given(prefixes)
def test_uniform_transport_is_identity(a):
    r = transport(uniform_measure(), a)
    assert r.c_prefix == a
    assert r.status is TransportStatus.OK


def test_bernoulli_transport_known_images():
    mu = bernoulli_measure(Fraction(3, 4))
    r = transport(mu, "111")
    assert r.c_prefix.startswith("1")
    assert (r.image_lo, r.image_hi) == (Fraction(37, 64), Fraction(1))
    r = transport(mu, "00")
    assert r.c_prefix == "0000"
    assert r.status is TransportStatus.OK
    assert (r.image_lo, r.image_hi) == (Fraction(0), Fraction(1, 16))


def test_transport_monotone_and_prefix_coherent():
    mu = bernoulli_measure(Fraction(3, 4))
    depth = 10
    outputs = []
    for i in range(2**depth):
        a = format(i, f"0{depth}b")
        outputs.append(transport(mu, a).c_prefix)
        # prefix coherence against the 5-bit ancestor
        parent = transport(mu, a[:5]).c_prefix
        child = outputs[-1]
        assert child.startswith(parent) or parent.startswith(child)
    for c1, c2 in zip(outputs, outputs[1:]):
        # lexicographic order as dyadic intervals: no inversion
        n = min(len(c1), len(c2))
        assert c1[:n] <= c2[:n]


def test_transport_zero_mass_cylinder_refused():
    mu = table_measure(
        "atomic",
        {
            "": Fraction(1),
            "0": Fraction(0),
            "1": Fraction(1),
            "10": Fraction(1),
            "11": Fraction(0),
        },
    )
    with pytest.raises(ZeroMassCylinder):
        transport(mu, "0")


def test_transport_atom_suspected():
    # all mass concentrated on a single infinite path: images stop shrinking
    def mass(s: str) -> Fraction:
        return Fraction(1) if set(s) <= {"0"} else Fraction(0)

    mu = table_measure("dirac", {})
    mu = type(mu)("dirac", mass)
    with pytest.raises(AtomSuspected):
        transport(mu, "0" * 12)


@pytest.mark.parametrize(
    "mu",
    [uniform_measure(), bernoulli_measure(Fraction(3, 4))],
    ids=lambda m: m.name,
)
def test_pushforward_bracketing(mu):
    for L in range(1, 4):
        for i in range(2**L):
            tau = format(i, f"0{L}b")
            chk = transport_pushforward_check(mu, tau, 10)
            assert chk.passed


def test_pushforward_at_depth_0_walks_the_root():
    chk = transport_pushforward_check(bernoulli_measure(Fraction(3, 4)), "", 0)
    assert chk.passed
    assert chk.transported_mass == chk.target_mass == 1


def test_tt_from_ucf_identity_round_trip():
    phi = tt_from_ucf(identity_fn(), 8)
    for i in range(16):
        s = format(i, "04b")
        bits = tuple(int(b) for b in s + "0" * 8)
        out = "".join(str(b) for b in phi.apply_prefix(bits, 4))
        assert out == s


def test_tt_from_ucf_halving_map():
    # g(x) = x/2 maps [0.1...] to [0.01...]
    phi = tt_from_ucf(half_fn(), 8)
    bits = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    out = phi.apply_prefix(bits, 3)
    assert out == (0, 1, 0)


def test_limit_oracle_change_counting():
    def script(query, stage):
        return min(stage, 3)

    o = LimitOracle(script, budget=3)
    assert o.changes("q", 10) == 3
    assert o.validate_budget("q", 10)
    assert o.final("q", 10) == 3
    tight = LimitOracle(script, budget=2)
    assert not tight.validate_budget("q", 10)


def ref_use_bound(theta, n):
    """u(n) by counting k up to the least with 2^{-k} <= theta(2^{-n-2});
    None past USE_BOUND_BUDGET."""
    eps = theta(Fraction(1, 2 ** (n + 2)))
    k = 0
    while Fraction(1, 2**k) > eps:
        k += 1
        if k > USE_BOUND_BUDGET:
            return None
    return max(k, n + 1)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(Fraction, st.integers(1, 2**40), st.integers(1, 2**40))
    | st.integers(-30, 30).map(lambda e: Fraction(2) ** e),
    st.integers(0, 30),
)
def test_use_bound_equals_reference(c, n):
    theta = ModulusFunction(lambda eps: c * eps)
    phi = tt_from_ucf(dataclasses.replace(identity_fn(), modulus=theta), 8)
    want = ref_use_bound(theta, n)
    if want is None:
        with pytest.raises(BudgetExceeded, match=f"beyond {USE_BOUND_BUDGET} at bit {n}"):
            phi.use_bound(n)
    else:
        assert phi.use_bound(n) == want
