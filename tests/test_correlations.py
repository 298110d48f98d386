"""Correlation measures: closed forms against general X-state routes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from topoqubit import (
    DomainError,
    XState4,
    coherence_l1,
    concurrence_evolved,
    concurrence_x,
    discord_closed,
    discord_x,
    evolved_x_state,
    lqu_closed,
    lqu_x,
    report,
    tnd_x,
)
from conftest import brute_discord, brute_lqu, random_x_state

HALF_PI = math.pi / 2.0

# dense alpha grid; the pure-state corner alpha = 1 has tests of its own
ALPHAS = np.linspace(0.05, 0.995, 64)
THETAS = np.linspace(0.05, math.pi - 0.05, 13)


def bell_state(theta: float = HALF_PI) -> XState4:
    return evolved_x_state(theta, 1.0)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_endpoints():
    assert concurrence_x(bell_state()) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert concurrence_x(evolved_x_state(0.0, 0.7)) == 0.0
    assert concurrence_evolved(HALF_PI, 1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_concurrence_routes_agree():
    for theta in THETAS:
        for a in ALPHAS:
            got = concurrence_x(evolved_x_state(float(theta), float(a)))
            want = concurrence_evolved(float(theta), float(a))
            assert abs(got - want) <= 1e-14


def test_sudden_death_threshold():
    # at theta = pi/2 the concurrence vanishes exactly when a^2 <= sqrt(2) - 1
    a_crit = math.sqrt(math.sqrt(2.0) - 1.0)
    eps = 1e-6
    assert concurrence_evolved(HALF_PI, a_crit + eps) > 0.0
    assert concurrence_evolved(HALF_PI, a_crit - eps) == 0.0
    assert concurrence_x(evolved_x_state(HALF_PI, a_crit + eps)) > 0.0
    assert concurrence_x(evolved_x_state(HALF_PI, a_crit - eps)) == 0.0


def test_sudden_death_root_both_routes():
    def bisect(f):
        lo, hi = 0.1, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    r1 = bisect(lambda a: concurrence_evolved(HALF_PI, a))
    r2 = bisect(lambda a: concurrence_x(evolved_x_state(HALF_PI, a)))
    want = math.sqrt(math.sqrt(2.0) - 1.0)
    assert abs(r1 - r2) <= 1e-8
    assert r1 == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# discord
# ---------------------------------------------------------------------------

def test_discord_endpoints():
    assert discord_x(bell_state()) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert discord_closed(1.0) == 1.0
    # theta = 0 evolves |00> into a classical diagonal state
    assert discord_x(evolved_x_state(0.0, 0.6)) == pytest.approx(0.0, abs=1e-12)


def test_discord_routes_agree():
    for a in ALPHAS:
        got = discord_x(evolved_x_state(HALF_PI, float(a)))
        want = discord_closed(float(a))
        assert abs(got - want) <= 1e-6


def test_discord_closed_continuity_near_pure():
    # the a -> 1 special case must join the formula smoothly
    assert abs(discord_closed(0.9999) - 1.0) < 5e-3
    assert abs(discord_closed(1.0 - 1e-9) - discord_closed(1.0)) < 1e-5


def test_discord_brute_force_oracle():
    s = evolved_x_state(HALF_PI, 0.8)
    assert discord_x(s) == pytest.approx(brute_discord(s.matrix), abs=1e-6)


def test_discord_brute_force_oracle_asymmetric(rng):
    for _ in range(3):
        s = random_x_state(rng)
        assert discord_x(s) == pytest.approx(brute_discord(s.matrix), abs=1e-6)


# ---------------------------------------------------------------------------
# local quantum uncertainty
# ---------------------------------------------------------------------------

def test_lqu_endpoints():
    assert lqu_x(bell_state()) == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert lqu_closed(HALF_PI, 1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    # theta = 0 gives a product state: no local quantum uncertainty
    assert lqu_x(evolved_x_state(0.0, 1.0)) == pytest.approx(0.0, abs=1e-10)


def test_lqu_routes_agree():
    worst = 0.0
    for theta in THETAS:
        for a in ALPHAS:
            got = lqu_x(evolved_x_state(float(theta), float(a)))
            want = lqu_closed(float(theta), float(a))
            worst = max(worst, abs(got - want))
    assert worst <= 1e-10


def test_lqu_pure_state_matches_closed():
    # alpha = 1: a pure state, both block determinants 0, block 23 empty
    for theta in np.linspace(0.0, math.pi, 181):
        got = lqu_x(evolved_x_state(float(theta), 1.0))
        assert abs(got - lqu_closed(float(theta), 1.0)) <= 1e-12


def _lqu_oracle_stack(rng, n: int = 64) -> XState4:
    # Six groups of n random X states with complex coherences: full rank,
    # block 14 of rank 1, block 23 of rank 1, both of rank 1, block 23 all
    # zero (rho22 = rho33 = 0), and block 14 all zero with block 23 of rank 1.
    # Rank-1 blocks carry their exact determinant 0.
    pops = rng.dirichlet(np.ones(4), size=(6, n))
    pops[4, :, 1:3] = 0.0
    pops[5, :, [0, 3]] = 0.0
    pops /= pops.sum(axis=-1, keepdims=True)
    frac = rng.uniform(0.0, 0.98, size=(6, n, 2))
    frac[[1, 3], :, 0] = 1.0
    frac[[2, 3, 5], :, 1] = 1.0
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(6, n, 2)))
    p11, p22, p33, p44 = np.moveaxis(pops, -1, 0)
    rho14 = frac[..., 0] * np.sqrt(p11 * p44) * phase[..., 0]
    rho23 = frac[..., 1] * np.sqrt(p22 * p33) * phase[..., 1]
    det14 = np.where(frac[..., 0] == 1.0, 0.0, p11 * p44 - np.abs(rho14) ** 2)
    det23 = np.where(frac[..., 1] == 1.0, 0.0, p22 * p33 - np.abs(rho23) ** 2)
    return XState4(p11, p22, p33, p44, rho14, rho23, det14, det23)


def test_lqu_matches_eigh_oracle(rng):
    s = _lqu_oracle_stack(rng)
    got = lqu_x(s)
    assert got.shape == (6, 64)
    assert np.abs(got - brute_lqu(s.matrix)).max() <= 1e-12


def test_lqu_piecewise_branches_both_visited():
    # at theta = pi/2 the isotropic branch always wins; the anisotropic
    # a^4 sin^2(theta) branch takes over once sin^2(theta) is small enough
    lo = lqu_closed(HALF_PI, 0.3)
    assert lo == pytest.approx(1.0 - math.sqrt(1.0 - 0.3 ** 4), rel=1e-12, abs=0.0)
    hi = lqu_closed(math.pi / 6.0, 0.99)
    assert hi == pytest.approx(0.99 ** 4 * 0.25, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# trace-norm geometric discord
# ---------------------------------------------------------------------------

def test_tnd_equals_half_coherence_on_family():
    # closed relation specific to the evolved Bell family
    for theta in THETAS:
        for a in ALPHAS:
            s = evolved_x_state(float(theta), float(a))
            assert abs(tnd_x(s) - 0.5 * coherence_l1(s)) <= 1e-12


def test_tnd_direct_value():
    s = evolved_x_state(math.pi / 3, 0.8)
    want = 0.5 * 0.64 * math.sin(math.pi / 3)
    assert tnd_x(s) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tnd_degenerate_corners_return_zero():
    # the ratio formula is 0/0 at the last two corners; its weighted-mean
    # form gives |xi_1| / 2 there: 0 for the maximally mixed state, and
    # coherence_l1 / 2 = 1/2 for the Bell state
    assert tnd_x(evolved_x_state(0.0, 0.5)) == 0.0
    assert tnd_x(evolved_x_state(HALF_PI, 1.0)) == 0.5
    assert tnd_x(XState4(0.25, 0.25, 0.25, 0.25)) == 0.0


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def test_coherence_values():
    assert coherence_l1(bell_state()) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    for theta, a in [(HALF_PI, 0.5), (math.pi / 4, 0.8)]:
        s = evolved_x_state(theta, a)
        assert coherence_l1(s) == pytest.approx(a * a * math.sin(theta), rel=1e-13, abs=0.0)
    assert coherence_l1(evolved_x_state(HALF_PI, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# report bundle and ranges
# ---------------------------------------------------------------------------

def test_report_bundles_scalars():
    s = evolved_x_state(HALF_PI, 0.8)
    r = report(s)
    assert r.concurrence == concurrence_x(s)
    assert r.discord == discord_x(s)
    assert r.lqu == lqu_x(s)
    assert r.tnd == tnd_x(s)
    assert r.coherence_l1 == coherence_l1(s)


def test_measure_ranges_on_random_states(rng):
    for _ in range(300):
        s = random_x_state(rng)
        c = concurrence_x(s)
        d = discord_x(s)
        u = lqu_x(s)
        t = tnd_x(s)
        h = coherence_l1(s)
        assert 0.0 <= c <= 1.0 + 1e-12
        assert -1e-9 <= d <= 1.0 + 1e-9
        assert -1e-9 <= u <= 1.0 + 1e-9
        assert -1e-12 <= t <= 0.5 + 1e-9
        assert 0.0 <= h <= 2.0 + 1e-12


@pytest.mark.parametrize("closed", [
    lambda a: concurrence_evolved(1.1, a), discord_closed, lambda a: lqu_closed(1.1, a),
], ids=["concurrence_evolved", "discord_closed", "lqu_closed"])
@pytest.mark.parametrize("a", [-0.1, 1.5, math.nan])
def test_closed_forms_reject_factors_outside_the_unit_interval(closed, a):
    with pytest.raises(DomainError) as got:
        closed(a)
    assert str(got.value) == f"coherence factor must lie in [0, 1], got {a}"
