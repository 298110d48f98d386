"""Information-backflow witnesses and revival-interval bookkeeping."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from topoqubit import (
    DensityMatrix2,
    DephasingChannel,
    DomainError,
    HorizonWarning,
    OhmicEnvironment,
    TimeWindow,
    alpha,
    alpha_profile,
    blp,
    blp_pair_scan,
    cb,
    critical_q_scan,
    dalpha_dt,
    lpp,
    evolve_single,
    nm_report,
    positive_variation,
    trace_distance,
)
from topoqubit import dephasing
from topoqubit.nonmarkov import (
    _alpha_sq_slope,
    _bisect_sign_change,
    _cached_profile,
    _revival,
    _rising_intervals,
)
from topoqubit.specfun import DEFAULT_OPTIONS
from topoqubit.states import PAULIS

# asymptotic recoveries (Q > 2) legitimately outlast any finite window,
# so the open-interval warning is routine here
pytestmark = pytest.mark.filterwarnings("ignore::topoqubit.HorizonWarning")


def chan(q: float, g0: float, b: float) -> DephasingChannel:
    return DephasingChannel(OhmicEnvironment(q, g0), b)


# ---------------------------------------------------------------------------
# window container
# ---------------------------------------------------------------------------

def test_time_window_validation():
    with pytest.raises(DomainError):
        TimeWindow(0.0)
    with pytest.raises(DomainError):
        TimeWindow(-5.0)
    with pytest.raises(DomainError):
        TimeWindow(1.0, n_grid=8)
    w = TimeWindow.for_cutoff(0.5)
    assert w.t_max == pytest.approx(200.0)
    ts = w.times()
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(w.t_max)
    assert len(ts) == w.n_grid


# ---------------------------------------------------------------------------
# positive variation on synthetic signals
# ---------------------------------------------------------------------------

def test_variation_of_monotone_decay_is_zero():
    w = TimeWindow(10.0, 2048)
    val, intervals = positive_variation(
        lambda t: math.exp(-t), lambda t: -math.exp(-t), w)
    assert val == 0.0
    assert intervals == ()


def test_variation_of_damped_oscillation_matches_dense_oracle():
    w = TimeWindow(10.0, 4096)

    def f(t):
        return math.exp(-t) * (1.0 + 0.3 * math.sin(5.0 * t))

    def dfdt(t):
        return math.exp(-t) * (1.5 * math.cos(5.0 * t) - 1.0 - 0.3 * math.sin(5.0 * t))

    val, intervals = positive_variation(f, dfdt, w)
    tt = np.linspace(0.0, 10.0, 1_000_001)
    ff = np.exp(-tt) * (1.0 + 0.3 * np.sin(5.0 * tt))
    dense = float(np.clip(np.diff(ff), 0.0, None).sum())
    assert val == pytest.approx(dense, abs=1e-7)
    # 5/(2 pi) cycles per unit time over 10 units: nine complete upswings
    assert len(intervals) == 9
    for a, b in intervals:
        assert 0.0 <= a < b <= 10.0
        assert f(b) > f(a)


def test_variation_open_interval_warns_at_horizon():
    w = TimeWindow(2.0, 512)
    with pytest.warns(HorizonWarning):
        val, intervals = positive_variation(
            lambda t: -math.cos(t), lambda t: math.sin(t), w)
    assert intervals[-1][1] == pytest.approx(2.0)
    assert val == pytest.approx(-math.cos(2.0) + 1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# BLP measure
# ---------------------------------------------------------------------------

def test_blp_zero_without_field():
    w = TimeWindow.for_cutoff(1.0)
    assert blp(chan(3.0, 1.0, 0.0), w) == 0.0


def test_blp_zero_at_or_below_threshold_exponent():
    # revivals require Q > 2: every combination below stays Markovian
    for q in (0.5, 1.0, 1.5, 2.0):
        for g0 in (0.1, 1.6):
            assert blp(chan(q, g0, 1.0), TimeWindow.for_cutoff(g0)) == 0.0


def test_blp_frozen_value_above_threshold():
    got = blp(chan(3.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert got == pytest.approx(1.2124975807433506e-3, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason=(
    "at full field strength the decoherence exponent at this weak cutoff "
    "reaches ~1e5 before the first revival, so the coherence factor "
    "underflows to exact zero and no backflow survives in double precision"))
def test_blp_positive_at_weak_cutoff_full_field():
    assert blp(chan(3.0, 0.01, 1.0), TimeWindow.for_cutoff(0.01)) > 0.0


def test_blp_positive_at_weak_cutoff_weak_field():
    # the same environment fires once the field no longer flattens alpha
    got = blp(chan(3.0, 0.01, 0.002175), TimeWindow(1500.0, 3001))
    assert got == pytest.approx(0.08818894325022991, rel=1e-9, abs=0.0)


def test_blp_grid_refinement_stable():
    coarse = blp(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 4096))
    fine = blp(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 8192))
    assert abs(coarse - fine) < 1e-8


# ---------------------------------------------------------------------------
# LPP measure
# ---------------------------------------------------------------------------

def test_lpp_zero_for_markovian():
    assert lpp(chan(1.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6)) == 0.0


def test_lpp_positive_but_smaller_than_blp():
    w = TimeWindow.for_cutoff(1.6)
    ch = chan(3.0, 1.6, 1.0)
    v_lpp = lpp(ch, w)
    v_blp = blp(ch, w)
    assert v_lpp == pytest.approx(2.0107476985926902e-6, rel=1e-9, abs=0.0)
    assert 0.0 < v_lpp < v_blp

    w2 = TimeWindow(1500.0, 3001)
    ch2 = chan(3.0, 0.01, 0.002175)
    assert 0.0 < lpp(ch2, w2) < blp(ch2, w2)


# ---------------------------------------------------------------------------
# coherence witness
# ---------------------------------------------------------------------------

def test_cb_vanishes_for_diagonal_preparation():
    w = TimeWindow.for_cutoff(1.6)
    assert cb(0.0, chan(3.0, 1.6, 1.0), w) == 0.0


def test_cb_matches_blp_at_equator():
    for q, g0 in [(3.0, 1.6), (2.5, 1.0)]:
        w = TimeWindow.for_cutoff(g0)
        ch = chan(q, g0, 1.0)
        assert abs(cb(0.5 * math.pi, ch, w) - blp(ch, w)) <= 1e-10


def test_cb_scales_with_preparation_angle():
    w = TimeWindow.for_cutoff(1.6)
    ch = chan(3.0, 1.6, 1.0)
    full = blp(ch, w)
    tilted = cb(0.25 * math.pi, ch, w)
    assert abs(tilted - math.sin(0.25 * math.pi) * full) <= 1e-10


# ---------------------------------------------------------------------------
# shared revival intervals
# ---------------------------------------------------------------------------

def test_report_intervals_and_cross_consistency():
    w = TimeWindow.for_cutoff(1.6)
    ch = chan(3.0, 1.6, 1.0)
    r = nm_report(ch, w)
    assert r.n_blp == blp(ch, w)
    assert r.n_lpp == lpp(ch, w)
    assert r.n_cb == cb(0.5 * math.pi, ch, w)
    assert len(r.revival_intervals) == 1
    a, b = r.revival_intervals[0]
    assert 0.0 < a < b <= w.t_max
    assert a == pytest.approx(1.8774690853310287, rel=1e-9, abs=0.0)


def test_markovian_report_has_no_intervals():
    r = nm_report(chan(1.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert r.n_blp == 0.0 and r.n_lpp == 0.0 and r.n_cb == 0.0
    assert r.revival_intervals == ()


# ---------------------------------------------------------------------------
# pair scan
# ---------------------------------------------------------------------------

def test_pair_scan_polar_axis_wins():
    ch = chan(3.0, 1.6, 0.247)
    w = TimeWindow(62.5, 2048)
    axis, val = blp_pair_scan(ch, w, n_angles=5)
    assert axis == (0.0, 0.0)
    assert abs(val - blp(ch, w)) <= 1e-4


def test_pair_scan_equatorial_axis_wins_at_low_coherence():
    # alpha revives from 0.015 to 0.038 here; the equatorial pair's trace
    # distance is alpha, the polar pair's alpha^2, so the equator gains more
    ch = chan(3.0, 1.6, 1.0)
    w = TimeWindow(62.5, 4096)
    axis, val = blp_pair_scan(ch, w, n_angles=3)
    assert axis == (0.5 * math.pi, 0.0)
    assert val == pytest.approx(0.02295625333286648, rel=1e-9, abs=0.0)
    assert val > 10.0 * blp(ch, w)


def test_pair_scan_matches_per_state_loop():
    # reference: each member evolved, validated and compared one time at a
    # time; the stacked scan does the same arithmetic, so results are equal
    ch = chan(3.0, 1.6, 1.0)
    w = TimeWindow(62.5, 512)
    avals, _ = alpha_profile(ch, w.times())
    best = ((0.0, 0.0), -1.0)
    for th in np.linspace(0.0, 0.5 * math.pi, 3):
        for ph in np.linspace(0.0, math.pi, 3, endpoint=False):
            nvec = (math.sin(th) * math.cos(ph) * PAULIS[0]
                    + math.sin(th) * math.sin(ph) * PAULIS[1]
                    + math.cos(th) * PAULIS[2])
            plus = DensityMatrix2(0.5 * (np.eye(2) + nvec))
            minus = DensityMatrix2(0.5 * (np.eye(2) - nvec))
            dist = [0.0 if a == 0.0 else
                    trace_distance(evolve_single(plus, a), evolve_single(minus, a))
                    for a in map(float, avals)]
            val = float(np.clip(np.diff(dist), 0.0, None).sum())
            if val > best[1]:
                best = ((float(th), float(ph)), val)
    assert blp_pair_scan(ch, w, n_angles=3) == best


def test_pair_scan_markovian_is_flat_zero():
    axis, val = blp_pair_scan(chan(1.0, 1.6, 1.0), TimeWindow(62.5, 256), n_angles=3)
    assert val == 0.0


def test_pair_scan_validation():
    with pytest.raises(DomainError):
        blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 256), n_angles=1)


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------

def test_critical_q_near_threshold():
    got = critical_q_scan(1.6, q_range=(0.0, 6.0))
    assert got is not None
    assert 2.0 - 1e-3 <= got <= 2.5
    assert got == pytest.approx(2.232421875, abs=1e-9)


def test_critical_q_none_without_field():
    assert critical_q_scan(1.6, q_range=(0.0, 6.0), b=0.0) is None


def test_critical_q_range_validation():
    with pytest.raises(DomainError):
        critical_q_scan(1.6, q_range=(3.0, 1.0))


def test_critical_q_default_range_pinned():
    # bisection over (0, 12); every step is a cold witness call at a new Q
    pinned = {0.5: 3.7060546875, 1.0: 2.797119140625, 1.6: 2.232421875, 3.0: 2.000244140625}
    for g0, want in pinned.items():
        assert critical_q_scan(g0) == want


# ---------------------------------------------------------------------------
# revival search against the per-sample walk
# ---------------------------------------------------------------------------

def _rising_intervals_walk(ts, d_grid, dfdt, refine_tol):
    """Reference: visit every nonzero sample and bisect wherever its sign
    differs from the previous nonzero sample's."""
    signs = np.sign(d_grid)
    nz = np.flatnonzero(signs)
    intervals = []
    truncated = False
    if nz.size:
        cur_start = float(ts[0]) if signs[nz[0]] > 0 else None
        prev = nz[0]
        for cur in nz[1:]:
            if signs[cur] != signs[prev]:
                root = _bisect_sign_change(
                    dfdt, float(ts[prev]), float(ts[cur]), float(signs[prev]), refine_tol
                )
                if signs[cur] > 0:
                    cur_start = root
                elif cur_start is not None:
                    intervals.append((cur_start, root))
                    cur_start = None
            prev = cur
        if cur_start is not None:
            intervals.append((cur_start, float(ts[-1])))
            truncated = bool(d_grid[-1] > 0.0)
    return tuple(intervals), truncated


def _synthetic_grids():
    ts = np.linspace(0.0, 10.0, 257)
    grids = {
        "all_positive": np.full(ts.shape, 0.5),
        "all_negative": -np.linspace(1.0, 2.0, ts.size),
        "all_zero": np.zeros(ts.shape),
        "many_flips": np.sin(40.0 * ts + 0.3),
        "truncated_end": -np.cos(ts),
        "falls_at_end": -np.sin(ts - 0.05),
    }
    g = np.sin(3.0 * ts)
    g[:7] = 0.0
    grids["leading_zeros"] = g.copy()
    g[-5:] = 0.0
    grids["leading_trailing_zeros"] = g.copy()
    g = np.cos(2.0 * ts)
    g[40:47] = 0.0  # a run of zeros across a sign change
    g[100] = 0.0
    g[-1] = 0.0
    grids["interior_zeros"] = g
    rng = np.random.default_rng(2024)
    for seed in range(8):
        signs = rng.integers(-1, 2, ts.size)
        grids[f"random_{seed}"] = signs * rng.uniform(0.1, 2.0, ts.size)
    return ts, grids


@pytest.mark.parametrize("name", sorted(_synthetic_grids()[1]))
def test_rising_intervals_match_per_sample_walk(name):
    ts, grids = _synthetic_grids()
    d_grid = grids[name]

    def dfdt(t):
        return float(np.interp(t, ts, d_grid))

    got = _rising_intervals(ts, d_grid, dfdt, 1e-10)
    assert got == _rising_intervals_walk(ts, d_grid, dfdt, 1e-10)
    if name == "truncated_end":
        assert got[1] is True


# ---------------------------------------------------------------------------
# Q <= 2: alpha is monotone by the numerics, not only by the shortcut
# ---------------------------------------------------------------------------

_FIG1_MARKOVIAN_Q = [round(0.05 * k, 2) for k in range(41)] + [1.0 - 1e-7, 1.0 + 1e-7, 2.0 - 1e-9]


@pytest.mark.parametrize("g0", [0.01, 1.6, 100.0])
def test_markovian_exponents_never_revive_numerically(g0, monkeypatch):
    """No positive sample of d(alpha^2)/dt, on the alpha profile the revival
    search scans and from its scalar slope, for every Q <= 2 case."""
    # alpha_profile evaluates the kernel once per (Q, window), not per field
    kernel = {}
    i_q_profile = dephasing.i_q_profile

    def kernel_once(env, ts, opts=DEFAULT_OPTIONS):
        key = (env, float(ts[-1]), ts.size)
        if key not in kernel:
            kernel[key] = i_q_profile(env, ts, opts)
        return kernel[key]

    monkeypatch.setattr(dephasing, "i_q_profile", kernel_once)
    for q in _FIG1_MARKOVIAN_Q:
        for w in (TimeWindow.for_cutoff(g0), TimeWindow(1500.0)):
            ts = w.times()
            for b in (0.002175, 1.0, 5.0):
                ch = chan(q, g0, b)
                avals, davals = alpha_profile(ch, ts)
                assert not np.any(2.0 * avals * davals > 0.0), (q, g0, b, w.t_max)
                slope = _alpha_sq_slope(ch)
                for t in ts[128::256]:
                    assert slope(float(t)) <= 0.0, (q, g0, b, float(t))


def test_markovian_revival_search_builds_no_profile():
    _cached_profile.cache_clear()
    ch = chan(1.5, 1.6, 1.0)
    w = TimeWindow.for_cutoff(1.6)
    assert _revival(ch, w) == ((), (), False)
    assert _cached_profile.cache_info().currsize == 0


def test_revival_slope_equals_alpha_times_derivative():
    # one I_Q evaluation per point, the same products as 2 alpha dalpha/dt
    for q, g0, b in ((3.0, 1.6, 1.0), (2.5, 0.01, 0.002175), (5.3, 100.0, 5.0)):
        ch = chan(q, g0, b)
        slope = _alpha_sq_slope(ch)
        for t in np.linspace(0.0, 100.0 / g0, 17):
            t = float(t)
            assert slope(t) == 2.0 * alpha(ch, t) * dalpha_dt(ch, t)
