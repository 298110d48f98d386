"""Bath integral, coupling constant, and coherence factor."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import mpmath
from hypothesis import assume, given, settings, strategies as st

from topoqubit import (
    ConvergenceError,
    DephasingChannel,
    DomainError,
    EvalOptions,
    OhmicEnvironment,
    alpha,
    alpha_profile,
    beta,
    dalpha_db,
    dalpha_dt,
    dawson,
    di_q_dt,
    i_q,
    i_q_profile,
    kappa_to_q,
)
from conftest import mp_i_q, richardson_derivative


def env(q: float, g0: float) -> OhmicEnvironment:
    return OhmicEnvironment(q, g0)


def chan(q: float, g0: float, b: float) -> DephasingChannel:
    return DephasingChannel(env(q, g0), b)


# ---------------------------------------------------------------------------
# construction and parameter mapping
# ---------------------------------------------------------------------------

def test_environment_validation():
    with pytest.raises(DomainError):
        OhmicEnvironment(-0.1, 1.0)
    with pytest.raises(DomainError):
        OhmicEnvironment(1.0, 0.0)
    with pytest.raises(DomainError):
        OhmicEnvironment(1.0, -2.0)
    with pytest.raises(DomainError):
        DephasingChannel(env(1.0, 1.0), -0.5)


def test_kappa_to_q():
    assert kappa_to_q(0.5) == 0.0
    assert kappa_to_q(1.0) == 1.0
    assert kappa_to_q(2.5) == 4.0
    with pytest.raises(DomainError):
        kappa_to_q(0.49)


def test_beta_examples():
    # 4 pi / (Gamma(q+1) gamma0^(q+1)), with the overall minus sign
    assert beta(env(1.0, 1.0)) == pytest.approx(-4.0 * math.pi, rel=1e-15, abs=0.0)
    assert beta(env(3.0, 1.0)) == pytest.approx(-2.0 * math.pi / 3.0, rel=1e-15, abs=0.0)
    assert beta(env(0.0, 2.0)) == pytest.approx(-2.0 * math.pi, rel=1e-15, abs=0.0)
    e = env(2.2, 0.7)
    assert DephasingChannel(e, 1.0).beta_abs == -beta(e)
    assert beta(e) < 0.0


# ---------------------------------------------------------------------------
# bath integral
# ---------------------------------------------------------------------------

def test_i_q_at_zero_and_domain():
    for q in [0.0, 0.5, 1.0, 3.0]:
        assert i_q(env(q, 1.3), 0.0) == 0.0
    with pytest.raises(DomainError):
        i_q(env(1.0, 1.0), -0.1)


def test_i_q_frozen():
    # 40-digit references, both branches
    assert i_q(env(3.0, 1.0), 1.0) == pytest.approx(
        0.8488727670040445918680847049793391421929, rel=1e-12, abs=0.0)
    assert i_q(env(1.0, 1.0), 2.0) == pytest.approx(
        4.0 * 0.7394416300990793005006488964281928880339, rel=1e-12, abs=0.0)


def test_i_q_small_time_quadratic():
    # leading term of the unit-exponent branch is (t gamma0)^2
    v = i_q(env(1.0, 1.0), 1e-4)
    assert v == pytest.approx(1e-8, rel=1e-7, abs=0.0)


def test_i_q_oracle_grid():
    worst = 0.0
    opts = EvalOptions(max_terms=40_000)
    for q in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]:
        for g0 in [0.01, 1.0, 1.6]:
            for tg in [0.1, 1.0, 5.0, 20.0, 100.0]:
                t = tg / g0
                got = i_q(env(q, g0), t, opts)
                want = mp_i_q(q, g0, t)
                worst = max(worst, abs(got / want - 1.0))
    assert worst <= 1e-10


def test_i_q_nonnegative_no_clamping():
    # the implementation must not clamp; genuine negatives are a bug
    for q in np.linspace(0.0, 6.0, 25):
        e = env(float(q), 1.0)
        for t in np.geomspace(1e-3, 100.0, 40):
            assert i_q(e, float(t)) >= -1e-12


def test_branch_continuity_near_unit_exponent():
    for tg in [0.1, 0.5, 2.0, 10.0, 50.0]:
        mid = i_q(env(1.0, 1.0), tg)
        lo = i_q(env(1.0 - 1e-4, 1.0), tg)
        hi = i_q(env(1.0 + 1e-4, 1.0), tg)
        assert lo == pytest.approx(mid, rel=1e-2, abs=0.0)
        assert hi == pytest.approx(mid, rel=1e-2, abs=0.0)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-4, abs=0.0)


def test_di_q_dt_matches_finite_difference():
    for q, g0, t in [(3.0, 1.0, 0.7), (0.5, 1.6, 2.0), (2.0, 0.5, 4.0), (1.0, 1.0, 1.5)]:
        got = di_q_dt(env(q, g0), t)
        want = richardson_derivative(lambda x: i_q(env(q, g0), x), t, h=1e-3)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)


def test_di_q_dt_unit_branch_dawson_identity():
    # closed form for the unit-exponent slope: 4 gamma0 D(t gamma0 / 2)
    for g0 in [0.3, 1.0, 2.5]:
        for t in [0.1, 1.0, 4.0, 20.0]:
            got = di_q_dt(env(1.0, g0), t)
            want = 4.0 * g0 * dawson(t * g0 / 2.0)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# coherence factor
# ---------------------------------------------------------------------------

def test_alpha_frozen_and_edges():
    ch = chan(3.0, 1.0, 1.0)
    assert alpha(ch, 0.0) == 1.0
    assert alpha(ch, 1.0) == pytest.approx(0.028559948876911509915, rel=1e-12, abs=0.0)
    # exponent = 2 b^2 |beta| I
    want = math.exp(-2.0 * ch.beta_abs * i_q(ch.env, 1.0))
    assert alpha(ch, 1.0) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert alpha(chan(3.0, 1.0, 0.0), 5.0) == 1.0


def test_alpha_bounds_grid():
    for q in [0.0, 1.0, 2.5, 4.0]:
        for b in [0.05, 0.3, 1.0]:
            ch = chan(q, 1.0, b)
            for t in np.geomspace(1e-2, 100.0, 30):
                a = alpha(ch, float(t))
                assert 0.0 <= a <= 1.0


def test_alpha_monotone_in_field():
    for q in [0.5, 1.0, 3.0]:
        prev = None
        for b in np.linspace(0.0, 1.5, 16):
            a = alpha(chan(q, 1.0, float(b)), 2.0)
            if prev is not None:
                assert a <= prev + 1e-15
            prev = a


def test_dalpha_dt_matches_finite_difference():
    for q, g0, b, t in [(3.0, 1.0, 1.0, 0.5), (1.0, 1.6, 0.3, 1.0),
                        (0.5, 0.5, 0.2, 3.0), (2.0, 1.0, 0.15, 2.0)]:
        ch = chan(q, g0, b)
        got = dalpha_dt(ch, t)
        if abs(got) < 1e-12:
            continue
        want = richardson_derivative(lambda x: alpha(ch, x), t, h=1e-4)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)


def test_dalpha_db_matches_finite_difference():
    for q, g0, b, t in [(3.0, 1.0, 1.0, 0.5), (1.0, 1.6, 0.4, 1.0),
                        (2.0, 0.5, 0.25, 3.0)]:
        ch = chan(q, g0, b)
        got = dalpha_db(ch, t)
        want = richardson_derivative(lambda x: alpha(chan(q, g0, x), t), b, h=1e-4)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)
        assert got <= 0.0


# ---------------------------------------------------------------------------
# vectorized profiles
# ---------------------------------------------------------------------------

def test_profiles_match_scalars():
    ts = np.linspace(0.0, 100.0, 301)
    for q in [0.5, 1.0, 3.0]:
        for g0 in [0.01, 1.6]:
            e = env(q, g0)
            iv, div = i_q_profile(e, ts)
            ch = DephasingChannel(e, 0.01)
            av, dav = alpha_profile(ch, ts)
            for k in [0, 1, 7, 150, 300]:
                t = float(ts[k])
                assert iv[k] == pytest.approx(i_q(e, t), rel=1e-12, abs=1e-300)
                assert div[k] == pytest.approx(di_q_dt(e, t), rel=1e-12, abs=1e-300)
                assert av[k] == pytest.approx(alpha(ch, t), rel=1e-12, abs=1e-300)
                assert dav[k] == pytest.approx(dalpha_dt(ch, t), rel=1e-12, abs=1e-300)


def test_profiles_validate_grid():
    e = env(1.0, 1.0)
    with pytest.raises(DomainError):
        i_q_profile(e, np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        i_q_profile(e, np.array([-1.0, 0.0, 1.0]))


def test_profile_large_q_wide_window_is_finite():
    # Q = 121.3 up to t gamma0 = 1000: the e^-u part of the large-u expansion
    # must be formed in log space, or u^(a-b) * e^-u is inf * 0
    e = env(121.3, 1.0)
    ts = np.linspace(0.0, 1000.0, 64)
    iv, div = i_q_profile(e, ts)
    assert np.all(np.isfinite(iv)) and np.all(np.isfinite(div))
    assert iv[-1] == pytest.approx(mp_i_q(121.3, 1.0, 1000.0), rel=1e-12, abs=0.0)
    assert iv[-1] == pytest.approx(i_q(e, 1000.0), rel=1e-12, abs=0.0)
    assert div[-1] == pytest.approx(di_q_dt(e, 1000.0), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "q", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.9, 4.0, 5.0, 6.0, 6.3, 7.0, 8.0, 9.0]
)
def test_large_u_slope_sign_follows_rgamma(q):
    """At large u, dI/dt has the sign of 1/Gamma(1 - Q/2): negative for
    2 < Q < 4 (the memory threshold) and exactly zero for even Q, where
    only the underflowed e^-u part of the kernel is left."""
    want = np.sign(float(mpmath.rgamma(1.0 - q / 2.0)))
    e = env(q, 1.6)
    ts = 2.0 * np.sqrt([1e3, 2500.0, 6400.0]) / 1.6
    _, div = i_q_profile(e, ts)
    for t, d in zip(ts, div):
        assert np.sign(d) == want
        assert np.sign(di_q_dt(e, float(t))) == want


def test_profile_underflow_is_zero_not_nan():
    # strong coupling at a tiny cutoff drives alpha to exact zero
    ch = chan(3.0, 0.01, 1.0)
    av, dav = alpha_profile(ch, np.linspace(0.0, 10_000.0, 101))
    assert np.all(np.isfinite(av)) and np.all(np.isfinite(dav))
    assert av[0] == 1.0
    assert av[-1] == 0.0 and dav[-1] == 0.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_alpha_always_physical(q, g0, b, tg):
    ch = chan(q, g0, b)
    a = alpha(ch, tg / g0)
    assert 0.0 <= a <= 1.0
    assert i_q(ch.env, tg / g0) >= -1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=12.0),
    st.floats(min_value=40.0, max_value=80.0),
    st.sampled_from([0.01, 1.0, 1.6]),
)
def test_profile_matches_scalars_across_large_u_switch(q, u, g0):
    # Even Q keeps the Kummer series on both sides of u = 60.  Near Q = 1 the
    # Gamma((Q-1)/2) pole cancellation amplifies last-ulp differences between
    # the two paths by ~1/|Q-1| on either side of the switch (module docstring).
    assume(q % 2.0 != 0.0 and abs(q - 1.0) >= 0.05)
    e = env(q, g0)
    us = np.array([u, 40.0, 59.0, 60.0, 61.0, 80.0])
    ts = 2.0 * np.sqrt(us) / g0
    iv, div = i_q_profile(e, ts)
    for k, t in enumerate(ts):
        assert iv[k] == pytest.approx(i_q(e, float(t)), rel=1e-12, abs=1e-300)
        assert div[k] == pytest.approx(di_q_dt(e, float(t)), rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
    st.floats(min_value=40.0, max_value=80.0),
    st.sampled_from([0.01, 1.0, 1.6]),
)
def test_profile_matches_scalars_across_large_u_switch_even_q(q, u, g0):
    # For even Q >= 2, b - a is a pole of Gamma: the Kummer series serves on
    # both sides of u = 60 and sums e^-u times a polynomial.  Q = 0 switches.
    e = env(q, g0)
    us = np.array([u, 59.0, 60.0, 61.0])
    ts = 2.0 * np.sqrt(us) / g0
    iv, div = i_q_profile(e, ts)
    for k, t in enumerate(ts):
        assert iv[k] == pytest.approx(i_q(e, float(t)), rel=1e-12, abs=1e-300)
        assert div[k] == pytest.approx(di_q_dt(e, float(t)), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("q", [3.0, 1.0])
def test_profile_non_finite_argument_fails_at_once(q):
    # t gamma0 = 1e200 squares past the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="leaves the double range"):
            i_q_profile(env(q, 1.0), np.array([0.0, 1.0, 1e200]))
        with pytest.raises(ConvergenceError, match="no series"):
            i_q(env(q, 1.0), 1e200)
