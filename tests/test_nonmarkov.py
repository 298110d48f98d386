"""Information-backflow witnesses and revival-interval bookkeeping."""

from __future__ import annotations

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topoqubit import (
    ConvergenceError,
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
    trace_distance,
)
from topoqubit import dephasing, nonmarkov, specfun, states
from topoqubit.dephasing import _WALK_STEP, _reduced_revival, _refine_sign_change, _revival
from topoqubit.nonmarkov import _log_blp, _reduced_slope
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
    # a float count was accepted and failed later in numpy's linspace
    with pytest.raises(DomainError, match=r"n_grid must be an integer, got 64\.0"):
        TimeWindow(2.0, 64.0)
    assert TimeWindow(2.0, np.int64(64)).times().shape == (64,)
    # 100/gamma0 overflows: the error names gamma0, not a t_max never given
    for g0 in (1e-307, 5e-324, math.inf):
        with pytest.raises(DomainError, match=f"gamma0={g0!r}"):
            TimeWindow.for_cutoff(g0)
    w = TimeWindow.for_cutoff(0.5)
    assert w.t_max == pytest.approx(200.0)
    ts = w.times()
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(w.t_max)
    assert len(ts) == w.n_grid


# ---------------------------------------------------------------------------
# positive variation on synthetic signals: the rising intervals from grid
# samples of the derivative, the variation telescoped over their ends
# ---------------------------------------------------------------------------

def _rising_intervals(ts, d_grid, dfdt):
    """Brute-force reference: intervals on which a signal increases, from grid
    samples of its derivative.

    Sign changes of ``d_grid`` are refined on the scalar ``dfdt``, seeded with
    the grid values at the bracket ends.  Exact zeros on the grid carry no
    sign and are skipped when locating changes.  The flag is True when the
    derivative is still positive at the window end, i.e. the last interval is
    cut off by the window.
    """
    nz = np.flatnonzero(d_grid)
    signs = np.sign(d_grid[nz])
    intervals = []
    truncated = False
    if nz.size:
        cur_start = float(ts[0]) if signs[0] > 0 else None
        # Positions i in nz where the sign differs from that at i + 1.
        for i in np.flatnonzero(signs[1:] != signs[:-1]).tolist():
            j, k = nz[i], nz[i + 1]
            root = _refine_sign_change(
                dfdt, float(ts[j]), float(ts[k]), float(d_grid[j]), float(d_grid[k])
            )
            if signs[i + 1] > 0:
                cur_start = root
            elif cur_start is not None:
                intervals.append((cur_start, root))
                cur_start = None
        if cur_start is not None:
            intervals.append((cur_start, float(ts[-1])))
            truncated = bool(d_grid[-1] > 0.0)
    return tuple(intervals), truncated


def _variation(f, dfdt, w):
    ts = w.times()
    intervals, truncated = _rising_intervals(ts, dfdt(ts), dfdt)
    value = 0.0
    for a, b in intervals:
        value += f(b) - f(a)
    return value, intervals, truncated


def test_variation_of_monotone_decay_is_zero():
    w = TimeWindow(10.0, 2048)
    val, intervals, truncated = _variation(
        lambda t: np.exp(-t), lambda t: -np.exp(-t), w)
    assert val == 0.0
    assert intervals == ()
    assert truncated is False


def test_variation_of_damped_oscillation_matches_dense_oracle():
    w = TimeWindow(10.0, 4096)

    def f(t):
        return np.exp(-t) * (1.0 + 0.3 * np.sin(5.0 * t))

    def dfdt(t):
        return np.exp(-t) * (1.5 * np.cos(5.0 * t) - 1.0 - 0.3 * np.sin(5.0 * t))

    val, intervals, _ = _variation(f, dfdt, w)
    tt = np.linspace(0.0, 10.0, 1_000_001)
    ff = np.exp(-tt) * (1.0 + 0.3 * np.sin(5.0 * tt))
    dense = float(np.clip(np.diff(ff), 0.0, None).sum())
    assert val == pytest.approx(dense, abs=1e-7)
    # 5/(2 pi) cycles per unit time over 10 units: nine complete upswings
    assert len(intervals) == 9
    for a, b in intervals:
        assert 0.0 <= a < b <= 10.0
        assert f(b) > f(a)


def test_variation_open_interval_is_flagged_at_horizon():
    w = TimeWindow(2.0, 512)
    val, intervals, truncated = _variation(lambda t: -np.cos(t), lambda t: np.sin(t), w)
    assert truncated is True
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


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 7.0])
def test_witnesses_depend_on_field_over_cutoff_alone(q):
    # E is (B/gamma0)^2 times a function of Q and x = t gamma0, and the
    # revival ends in x depend on Q alone, so on default windows every
    # witness is unchanged under (B, gamma0) -> (cB, c gamma0)
    for b, g0 in ((0.3, 1.6), (0.05, 0.5)):
        def witnesses(c):
            ch, w = chan(q, c * g0, c * b), TimeWindow.for_cutoff(c * g0)
            return blp(ch, w), lpp(ch, w), cb(1.1, ch, w)

        want = witnesses(1.0)
        assert min(want) > 0.0
        for c in (0.01, 37.0):
            assert witnesses(c) == pytest.approx(want, rel=1e-13, abs=0.0), (b, g0, c)


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


@pytest.mark.parametrize("q, g0, b", [
    (3.0, 1.6, 1.0),
    (3.0, 1.6, 0.247),
    (4.0, 1.6, 1.0),
    (3.5, 0.5, 0.3),
    (3.0, 0.01, 0.002175),
])
def test_blp_bounded_below_by_sampled_scalar_alpha(q, g0, b):
    # independent reference: the discrete positive variation of the scalar
    # alpha^2 on a coarse grid of the default window shares neither the
    # revival search nor the array kernel, and cannot exceed the exact
    # variation; the grid misses at most a little of it near the roots
    ch = chan(q, g0, b)
    w = TimeWindow.for_cutoff(g0)
    got = blp(ch, w)
    sq = [alpha(ch, t) ** 2 for t in np.linspace(0.0, w.t_max, 1025).tolist()]
    sampled = sum(max(0.0, y1 - y0) for y0, y1 in zip(sq, sq[1:]))
    assert got > 0.0
    assert (1.0 - 5e-3) * got <= sampled <= (1.0 + 1e-12) * got, (sampled, got)


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


def _per_state_pair_scan(ch, w, n_angles):
    # reference: each member evolved, validated and compared one time at a
    # time; the stacked scan does the same arithmetic, so results are equal
    avals, _ = alpha_profile(ch, w.times())
    best = ((0.0, 0.0), -1.0)
    for th in np.linspace(0.0, 0.5 * math.pi, n_angles):
        for ph in np.linspace(0.0, math.pi, n_angles, endpoint=False):
            nvec = (math.sin(th) * math.cos(ph) * PAULIS[0]
                    + math.sin(th) * math.sin(ph) * PAULIS[1]
                    + math.cos(th) * PAULIS[2])
            plus = DensityMatrix2(0.5 * (np.eye(2) + nvec))
            minus = DensityMatrix2(0.5 * (np.eye(2) - nvec))
            dist = [trace_distance(evolve_single(plus, a), evolve_single(minus, a))
                    for a in map(float, avals)]
            val = float(np.clip(np.diff(dist), 0.0, None).sum())
            if val > best[1] + 1e-12 * abs(best[1]):  # the scan's tie rule
                best = ((float(th), float(ph)), val)
    return best


def test_pair_scan_matches_per_state_loop():
    ch = chan(3.0, 1.6, 1.0)
    w = TimeWindow(62.5, 512)
    assert blp_pair_scan(ch, w, n_angles=3) == _per_state_pair_scan(ch, w, 3)


def test_pair_scan_through_full_dephasing():
    # alpha underflows to exactly 0, where both members are I/2, and
    # revives to a normal double by the window end
    ch = chan(3.0, 1.6, 14.0)
    w = TimeWindow(62.5, 128)
    avals, _ = alpha_profile(ch, w.times())
    assert (avals == 0.0).any() and avals[-1] > 0.0
    assert blp_pair_scan(ch, w, n_angles=3) == _per_state_pair_scan(ch, w, 3)


def test_pair_scan_markovian_is_flat_zero():
    axis, val = blp_pair_scan(chan(1.0, 1.6, 1.0), TimeWindow(62.5, 256), n_angles=3)
    assert val == 0.0


def test_pair_scan_validation():
    with pytest.raises(DomainError):
        blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 256), n_angles=1)
    with pytest.raises(DomainError, match=r"n_angles must be an integer, got 3\.0"):
        blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 256), n_angles=3.0)


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
    # bisection over (0, 12), the doubles of the scan before steps with
    # 2 < Q <= 4 were bounded by the window-end coherence
    pinned = {
        (0.5, 1.0): 3.7060546875,
        (0.5, 0.3): 2.1884765625,
        (1.0, 1.0): 2.797119140625,
        (1.0, 0.3): 2.000244140625,
        (1.6, 1.0): 2.232421875,
        (1.6, 0.3): 2.000244140625,
        (3.0, 1.0): 2.000244140625,
        (3.0, 0.3): 2.000244140625,
        (0.1, 1.0): 5.786865234375,
        (0.1, 0.3): 4.244384765625,
        (0.01, 1.0): 8.608154296875,
        (0.01, 0.3): 7.15283203125,
    }
    for (g0, b), want in pinned.items():
        assert critical_q_scan(g0, b=b) == want, (g0, b)


def test_critical_q_short_window_pinned():
    # x_max = 3.2 ends before the first zero at Q near 2, so the scan's low
    # steps have no revival in the window at all
    assert critical_q_scan(1.6, w=TimeWindow(2.0)) == 2.783935546875
    assert critical_q_scan(1.0, w=TimeWindow(5.0), b=0.5) == 2.101318359375


@settings(deadline=None, max_examples=60)
@given(
    q=st.floats(2.0, 4.0, exclude_min=True),
    g0=st.floats(0.05, 3.0),
    b=st.floats(0.01, 2.0),
    x_max=st.floats(0.5, 100.0),
)
@example(q=4.0, g0=1.6, b=1.0, x_max=100.0)
@example(q=4.0, g0=0.5, b=0.3, x_max=1.0)
@example(q=2.0001, g0=1.6, b=1.0, x_max=3.2)
@example(q=3.0, g0=1.6, b=0.05, x_max=2.0)
@example(q=2.0000000000000004, g0=1.0, b=1.0, x_max=13.0)
def test_blp_bounded_by_window_end_coherence(q, g0, b, x_max):
    # for 2 < Q <= 4 the one rising stretch ends at t_max, so
    # 0 <= n_blp = alpha(t_max)^2 - alpha(t_1)^2 <= alpha(t_max)^2 in double
    # too; the bound critical_q_scan decides its steps with
    ch, w = chan(q, g0, b), TimeWindow(x_max / g0)
    s_i, x_end = nonmarkov._reduced_window(ch, w)
    a_end = math.exp(-nonmarkov._reduced_exponent(s_i, q, x_end))
    n_blp = blp(ch, w)
    assert 0.0 <= n_blp <= a_end * a_end
    stretches, _ = _reduced_revival(q)
    first_zero = stretches[0][0]
    if x_end <= first_zero:
        assert n_blp == 0.0


def test_backflow_of_an_interval_whose_exponent_rises_in_rounding_is_zero():
    # an exponent can rise by an ulp over a revival interval in rounding:
    # such an interval adds 0 to every witness, not a negative backflow, and
    # nothing to ln n_blp
    rising = ((44.54662397465348, 44.54662397465349),)
    falling = ((2.5, 2.0),)
    for signal in (nonmarkov._blp_signal, nonmarkov._lpp_signal, nonmarkov._cb_signal(1.1)):
        assert nonmarkov._backflow(rising, signal) == 0.0
        want = nonmarkov._backflow(falling, signal)
        assert want > 0.0 and nonmarkov._backflow(rising + falling, signal) == want
    assert _log_blp(rising) == -math.inf
    assert _log_blp(rising + falling) == _log_blp(falling)
    # a channel whose one interval, (12.6272, 13.0), is such a rise
    ch, w = chan(2.0000000000000027, 1.0, 1.0), TimeWindow(13.0)
    (e_start, e_end), = _revival(ch, w)[1]
    assert e_end > e_start
    assert blp(ch, w) == 0.0
    assert lpp(ch, w) == 0.0
    assert cb(1.1, ch, w) == 0.0
    assert nm_report(ch, w).n_blp == 0.0


def test_critical_q_scan_bound_keeps_the_window_overflow_error():
    # the first step (Q = 3.5) is bounded and still checks the window
    with pytest.raises(ConvergenceError, match="leaves the double range"):
        critical_q_scan(1.0, q_range=(2.5, 3.5), w=TimeWindow(1e160))


@pytest.mark.parametrize(
    "g0, q_range, want", [(1.6, (0.0, 12.0), 2.232421875), (0.01, (2.5, 3.5), None)]
)
def test_critical_q_scan_warns_once_at_the_caller(g0, q_range, want):
    # one warning per scan, attributed to the line that called it, also when
    # only bounded steps (no revival search) see the truncation, as every
    # step does at gamma0 = 0.01, where nothing in (2.5, 3.5] fires
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert critical_q_scan(g0, q_range=q_range) == want
    assert [c.category for c in caught] == [HorizonWarning]
    assert caught[0].filename == __file__


def test_critical_q_scan_without_revivals_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert critical_q_scan(1.6, q_range=(0.0, 2.0)) is None
    assert caught == []


# ---------------------------------------------------------------------------
# revival search against the per-sample walk
# ---------------------------------------------------------------------------

def _rising_intervals_walk(ts, d_grid, dfdt):
    """Reference: visit every nonzero sample and refine a root wherever its
    sign differs from the previous nonzero sample's."""
    signs = np.sign(d_grid)
    nz = np.flatnonzero(signs)
    intervals = []
    truncated = False
    if nz.size:
        cur_start = float(ts[0]) if signs[nz[0]] > 0 else None
        prev = nz[0]
        for cur in nz[1:]:
            if signs[cur] != signs[prev]:
                root = _refine_sign_change(
                    dfdt, float(ts[prev]), float(ts[cur]), float(d_grid[prev]),
                    float(d_grid[cur]),
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

    got = _rising_intervals(ts, d_grid, dfdt)
    assert got == _rising_intervals_walk(ts, d_grid, dfdt)
    if name == "truncated_end":
        assert got[1] is True


def _bisect_oracle(g, lo, hi, sign_lo):
    """Plain bisection: halve the bracket, trusting only the left-end sign,
    until no double lies strictly inside it."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (sign_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_REFINE_Q = [float(q) for q in np.linspace(2.05, 11.95, 34)] + [4.0, 6.0, 10.0]


@pytest.mark.parametrize("q", _REFINE_Q)
def test_refined_roots_bracket_a_sign_change_near_the_bisection_root(q):
    # every sign change of the default reduced window's grid, refined by the
    # secant steps and by plain bisection from the same bracket
    xs = np.linspace(0.0, 100.0, 4096)
    d_grid = -xs * specfun._hyp1f1_array(0.5 * (q + 1.0), 1.5, -0.25 * xs * xs)
    nz = np.flatnonzero(d_grid)
    flips = np.flatnonzero(np.sign(d_grid[nz[1:]]) != np.sign(d_grid[nz[:-1]]))
    assert flips.size >= 1

    def g(x):
        return _reduced_slope(q, x)

    for i in flips.tolist():
        j, k = nz[i], nz[i + 1]
        lo, hi = float(xs[j]), float(xs[k])
        root = _refine_sign_change(g, lo, hi, float(d_grid[j]), float(d_grid[k]))
        assert lo <= root <= hi
        below, at, above = (g(math.nextafter(root, -math.inf)), g(root),
                            g(math.nextafter(root, math.inf)))
        assert at == 0.0 or np.sign(below) != np.sign(at) or np.sign(at) != np.sign(above), (
            q, root)
        oracle = _bisect_oracle(g, lo, hi, float(np.sign(d_grid[j])))
        assert abs(root - oracle) <= 8.0 * math.ulp(oracle), (q, root, oracle)


def test_refiner_returns_an_exact_zero_and_stops_on_adjacent_doubles():
    # a linear g: the first secant point is the root itself
    assert _refine_sign_change(lambda x: x - 0.25, 0.0, 1.0, -0.25, 0.75) == 0.25
    # no double strictly inside: nothing is evaluated
    lo = 1.0
    hi = math.nextafter(lo, 2.0)

    def never(x):
        raise AssertionError("evaluated a bracket with no inner double")

    assert _refine_sign_change(never, lo, hi, -1.0, 1.0) in (lo, hi)


@pytest.mark.parametrize("q", _REFINE_Q)
def test_walked_brackets_refine_onto_a_sign_flip(q, monkeypatch):
    # the walk's brackets are 0.3 wide, a default grid cell 0.024: from them
    # the refiner still ends on a sign flip of the scalar slope, with at most
    # 14 slope calls per root (14 over Q in (2, 12]; 27 without the
    # Illinois step)
    brackets = []
    refine = dephasing._refine_sign_change

    def recorded(g, lo, hi, g_lo, g_hi):
        xs = []

        def counted(x):
            xs.append(x)
            return g(x)

        root = refine(counted, lo, hi, g_lo, g_hi)
        brackets.append((lo, hi, root, len(xs)))
        return root

    monkeypatch.setattr(dephasing, "_refine_sign_change", recorded)
    _reduced_revival.cache_clear()
    _reduced_revival(q)
    assert len(brackets) == math.ceil(0.5 * q - 1.0)
    for lo, hi, root, n_calls in brackets:
        assert hi - lo == pytest.approx(_WALK_STEP, rel=1e-12, abs=0.0)
        assert lo <= root <= hi
        assert _on_a_sign_flip(q, root), (q, root)
        assert n_calls <= 14, (q, root, n_calls)


def _no_hyp1f1_array(*args, **kwargs):
    raise AssertionError("vectorized 1F1 called by the revival search")


def test_critical_q_scan_call_count(monkeypatch):
    # work-count guard: with a cold revival memo the scan makes no array 1F1
    # call and 229 (gamma0 = 1.6) or 187 (1.0) scalar 1F1 calls, 141 or 119
    # of them refining roots, in 9 or 7 revival searches.  Before steps with
    # 2 < Q <= 4 were bounded by the window-end coherence it made 302 or 311
    # calls (181 or 193 refining) in 13 or 14 searches.  The walk at every
    # 0.3 in x made 394 at 1.6; the walk on the window grid, narrowed to one
    # grid cell per root, made 484 and 192; before it, 198 scalar calls and
    # 3853 array elements; plain bisection made 813 refining calls.
    calls = []
    refining = []
    hyp1f1 = specfun.hyp1f1
    refine = dephasing._refine_sign_change

    def counted(*args, **kwargs):
        calls.append(bool(refining))
        return hyp1f1(*args, **kwargs)

    def refine_counted(*args, **kwargs):
        refining.append(True)
        try:
            return refine(*args, **kwargs)
        finally:
            refining.pop()

    monkeypatch.setattr(specfun, "hyp1f1", counted)
    monkeypatch.setattr(specfun, "_hyp1f1_array", _no_hyp1f1_array)
    monkeypatch.setattr(dephasing, "_refine_sign_change", refine_counted)
    for g0, want, n_calls, n_refining, n_searches in (
        (1.6, 2.232421875, 229, 141, 9),
        (1.0, 2.797119140625, 187, 119, 7),
    ):
        calls.clear()
        _reduced_revival.cache_clear()
        assert critical_q_scan(g0) == want
        assert 0 < sum(calls) <= n_refining
        assert len(calls) <= n_calls
        # a bounded step adds no memo entry
        assert _reduced_revival.cache_info().misses == n_searches
        assert _reduced_revival.cache_info().currsize == n_searches


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("np.linalg.eigvalsh called on the single-qubit path")


def test_pair_scan_calls_no_eigvalsh(monkeypatch):
    # work-count guard: the 2x2 spectra of the states' validation and of the
    # trace distance are closed-form (LAPACK ran 45 times here)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
    axis, val = blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 4096), 3)
    assert axis == (0.5 * math.pi, 0.0)
    assert val == pytest.approx(0.02295625333286648, rel=1e-9, abs=0.0)


def test_pair_scan_evolves_one_pair_per_polar_angle(monkeypatch):
    # work-count guard: phase covariance ties every azimuth at one theta, so
    # the scan evolves one antipodal pair per polar angle (it evolved
    # n_angles^2 pairs before, 18 calls here)
    calls = []
    evolve_single = states.evolve_single

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve_single(*args, **kwargs)

    monkeypatch.setattr(states, "evolve_single", counted)
    axis, val = blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 512), n_angles=3)
    assert axis == (0.5 * math.pi, 0.0) and val > 0.0
    assert len(calls) == 6


def test_lpp_calls_no_eigvalsh(monkeypatch):
    # work-count guard: one stacked Bloch map, validated in closed form
    # (LAPACK ran 24 times here, 12 per interval end)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
    got = lpp(chan(3.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert got == pytest.approx(2.0107476985926902e-6, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Q <= 2: alpha is monotone by the numerics, not only by the shortcut
# ---------------------------------------------------------------------------

_FIG1_MARKOVIAN_Q = [round(0.05 * k, 2) for k in range(41)] + [1.0 - 1e-7, 1.0 + 1e-7, 2.0 - 1e-9]


@pytest.mark.parametrize("g0", [0.01, 1.6, 100.0])
def test_markovian_exponents_never_revive_numerically(g0):
    """No positive sample of the scalar reduced slope
    -x M((Q+1)/2; 3/2; -x^2/4) the revival search walks and refines on, over
    the default and a long window, for every Q <= 2 case; its sign is that of
    d alpha/dt at every field."""
    for q in _FIG1_MARKOVIAN_Q:
        # the search itself, past the Q <= 2 shortcut of _revival
        assert _reduced_revival(q) == ((), ()), q
        for w in (TimeWindow.for_cutoff(g0), TimeWindow(1500.0)):
            for t in w.times()[128::256]:
                t = float(t)
                slope = _reduced_slope(q, t * g0)
                assert slope <= 0.0, (q, g0, float(t))
                for b in (0.002175, 1.0, 5.0):
                    ch = chan(q, g0, b)
                    d = dalpha_dt(ch, t)
                    # d alpha/dt is -0.0 only where alpha times the slope
                    # underflows
                    assert np.sign(d) == np.sign(slope) or (
                        d == 0.0 and alpha(ch, t) * slope == 0.0), (q, g0, b, t)


def test_markovian_revival_search_builds_no_profile(monkeypatch):
    def no_profile(*args, **kwargs):
        raise AssertionError("slope profile sampled for Q <= 2")

    monkeypatch.setattr(specfun, "_hyp1f1_array", no_profile)
    _reduced_revival.cache_clear()
    w = TimeWindow.for_cutoff(1.6)
    for q in (0.5, 1.0, 1.5, 2.0):
        assert _revival(chan(q, 1.6, 1.0), w) == ((), (), False)


def test_report_builds_one_profile(monkeypatch):
    # the witnesses and the intervals of both cutoffs share one reduced
    # search, memoized on Q, so the weak-cutoff report makes one 1F1 call:
    # the slope at its window end x = 100, which sets the truncation flag; no
    # kernel profile is summed, only the two exponents at each interval's
    # ends, and no array 1F1 is called
    calls = []
    hyp1f1 = specfun.hyp1f1

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp1f1(*args, **kwargs)

    def no_kernel(*args, **kwargs):
        raise AssertionError("_kernel_array called by the revival search")

    monkeypatch.setattr(specfun, "hyp1f1", counted)
    monkeypatch.setattr(specfun, "_hyp1f1_array", _no_hyp1f1_array)
    monkeypatch.setattr(specfun, "_kernel_array", no_kernel)
    monkeypatch.setattr(dephasing, "_kernel_array", no_kernel)
    _reduced_revival.cache_clear()
    r = nm_report(chan(3.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert r.n_blp > 0.0 and len(r.revival_intervals) == 1
    assert calls
    calls.clear()
    weak = nm_report(chan(3.0, 0.01, 1.0), TimeWindow.for_cutoff(0.01))
    assert len(weak.revival_intervals) == 1
    assert calls == [(2.0, 1.5, -2500.0)]


@pytest.mark.parametrize("q, n_kernel, n_hyp1f1", [
    (2.5, 1, 1), (3.0, 1, 1), (5.0, 0, 1), (8.0, 1, 2), (12.0, 1, 2),
])
def test_warm_witness_evaluates_the_kernel_only_at_the_window_end(q, n_kernel, n_hyp1f1,
                                                                  monkeypatch):
    # work-count guard: the memo holds K at every finite revival end, so a
    # warm blp evaluates K only where the last stretch is clipped by the
    # window end (after an odd count of ends), and the 1F1 only for the slope
    # there and for the even-Q kernel, which sums (1 - M)/a.  It evaluated K
    # at both ends of every interval: 2, 2, 2, 4 and 6 calls.
    ch, w = chan(q, 1.6, 0.3), TimeWindow.for_cutoff(1.6)
    blp(ch, w)
    kernels, calls = [], []
    kernel, hyp1f1 = specfun._kernel, specfun.hyp1f1

    def kernel_counted(*args, **kwargs):
        kernels.append(args)
        return kernel(*args, **kwargs)

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp1f1(*args, **kwargs)

    monkeypatch.setattr(specfun, "_kernel", kernel_counted)
    monkeypatch.setattr(specfun, "hyp1f1", counted)
    blp(ch, w)
    assert len(kernels) == n_kernel
    assert len(calls) == n_hyp1f1


def test_pair_scan_sums_no_slope(monkeypatch):
    # the scan needs alpha alone, never the d alpha/dt profile
    def no_slope(*args, **kwargs):
        raise AssertionError("slope 1F1 profile summed by blp_pair_scan")

    monkeypatch.setattr(dephasing, "_hyp1f1_array", no_slope)
    axis, val = blp_pair_scan(chan(3.0, 1.6, 1.0), TimeWindow(62.5, 512), n_angles=3)
    assert axis == (0.5 * math.pi, 0.0) and val > 0.0


def test_reduced_slope_sign_equals_dalpha_dt_sign():
    # the scalar the search walks and refines on, at the points the old
    # d(alpha^2)/dt check visited: its sign is that of d alpha/dt, at t = 0 too
    for q, g0, b in ((3.0, 1.6, 1.0), (2.5, 0.01, 0.002175), (5.3, 100.0, 5.0)):
        ch = chan(q, g0, b)
        for t in np.linspace(0.0, 100.0 / g0, 17):
            t = float(t)
            assert np.sign(_reduced_slope(q, t * g0)) == np.sign(dalpha_dt(ch, t)), (q, g0, t)


# ---------------------------------------------------------------------------
# reduced-time revival search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g0", [0.01, 1.6])
def test_even_q_revival_starts_at_closed_form(g0):
    # at Q = 4 the slope is proportional to e^-u (2u/3 - 1): alpha turns at
    # u = 3/2, x = sqrt(6)
    start = nm_report(chan(4.0, g0, 1.0), TimeWindow.for_cutoff(g0)).revival_intervals[0][0]
    assert start == pytest.approx(math.sqrt(6.0) / g0, rel=1e-12, abs=0.0)


def test_weak_cutoff_intervals_scale_with_cutoff():
    # the revival set is one set of reduced times: at gamma0 = 0.01 it is the
    # gamma0 = 1.6 set stretched by 1.6 / 0.01, found although alpha underflows
    weak = nm_report(chan(3.0, 0.01, 1.0), TimeWindow.for_cutoff(0.01))
    strong = nm_report(chan(3.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert weak.n_blp == 0.0 and strong.n_blp > 0.0
    assert len(weak.revival_intervals) == len(strong.revival_intervals) == 1
    for (a0, a1), (b0, b1) in zip(weak.revival_intervals, strong.revival_intervals):
        assert a0 == pytest.approx(160.0 * b0, rel=1e-15, abs=0.0)
        assert a1 == pytest.approx(160.0 * b1, rel=1e-15, abs=0.0)
    assert weak.revival_intervals[-1][1] == 10_000.0


def test_weak_cutoff_revival_is_truncated_by_the_window():
    # the revival found at gamma0 = 0.01 outlasts the default window
    with pytest.warns(HorizonWarning, match="truncated by the window"):
        assert blp(chan(3.0, 0.01, 1.0), TimeWindow.for_cutoff(0.01)) == 0.0


def test_truncated_revival_warns_once_at_the_caller():
    # nm_report runs one search and gives one warning, as each witness does,
    # attributed to the line that called it
    ch, w = chan(3.0, 0.01, 1.0), TimeWindow.for_cutoff(0.01)
    for call in (lambda: nm_report(ch, w), lambda: blp(ch, w), lambda: cb(1.1, ch, w)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [c.category for c in caught] == [HorizonWarning]
        assert caught[0].filename == __file__


def test_no_field_no_intervals():
    r = nm_report(chan(3.0, 1.6, 0.0), TimeWindow.for_cutoff(1.6))
    assert r.revival_intervals == ()
    assert r.n_blp == 0.0 and r.log_n_blp == -math.inf


def test_revival_search_keeps_its_errors():
    # the exponent scale overflows at this cutoff
    with pytest.raises(DomainError):
        blp(chan(3.0, 1e-300, 1.0), TimeWindow(1.0))
    # (t_max gamma0)^2 / 4 overflows
    with pytest.raises(ConvergenceError):
        blp(chan(3.0, 1.6, 1.0), TimeWindow(1e160))


def _full_grid_revival(q, x_max, n_grid):
    """The revival search on a window grid, the brute-force reference: the
    reduced slope on the whole grid, every sign change refined from its grid
    cell.  Returns its (intervals, truncated) and the grid samples."""
    xs = np.linspace(0.0, x_max, n_grid)
    d_grid = -xs * specfun._hyp1f1_array(0.5 * (q + 1.0), 1.5, -0.25 * xs * xs)
    return _rising_intervals(xs, d_grid, lambda x: _reduced_slope(q, x)), d_grid


def _window_revival(q, x_max, n_grid):
    # The search's (intervals, truncated) on a window ending at x = x_max:
    # at gamma0 = 1, t and x coincide.
    intervals, _, truncated = _revival(chan(q, 1.0, 1.0), TimeWindow(x_max, n_grid))
    return intervals, truncated


def _on_a_sign_flip(q, x):
    # x is an exact zero of the scalar slope, or the slope's sign changes
    # between x and a neighbouring double
    below, at, above = (_reduced_slope(q, math.nextafter(x, -math.inf)), _reduced_slope(q, x),
                        _reduced_slope(q, math.nextafter(x, math.inf)))
    return at == 0.0 or np.sign(below) != np.sign(at) or np.sign(at) != np.sign(above)


def _assert_matches_the_full_grid(q, got, x_max, n_grid):
    # Counts and flags equal the reference's.  Ends are the same doubles for
    # Q <= 5.  Above, where the scalar 1F1 is noisy near its zeros, a 0.3-wide
    # walked bracket and a grid cell can lead the refiner onto neighbouring
    # sign flips: each end is within 16 ulps of the reference and on a flip
    # (the search on the window grid itself moved ends by up to 8 ulps
    # between windows).
    (want, want_flag), d_grid = _full_grid_revival(q, x_max, n_grid)
    assert got[1] == want_flag and len(got[0]) == len(want), (q, x_max, n_grid)
    if q <= 5.0:
        assert got[0] == want, (q, x_max, n_grid)
    for got_ends, want_ends in zip(got[0], want):
        for x, ref in zip(got_ends, want_ends):
            assert abs(x - ref) <= 16.0 * math.ulp(ref), (q, x, ref)
            assert x == x_max or _on_a_sign_flip(q, x), (q, x)
    return d_grid


# The fig1 lattice, a spread over (2, 12] and the even exponents up to 12.
_EARLY_STOP_Q = sorted(
    {round(0.05 * k, 2) for k in range(81)}
    | {float(q) for q in np.linspace(2.1, 12.0, 34)}
    | {6.0, 8.0, 10.0, 12.0}
)


@pytest.mark.parametrize("x_max, n_grid", [
    (100.0, 4096), (100.0, 1025), (15.0, 2048), (0.02, 2048), (160.0, 4096), (37.5, 513),
])
def test_early_stop_matches_the_full_grid_search(x_max, n_grid):
    # the slope -x e^-u M(1 - Q/2; 3/2; u) changes sign ceil(Q/2 - 1) times
    # (DLMF 13.2.39, 13.9.1), all of them at x < 15 for Q <= 12; the search
    # walks x in steps of 0.3 up to the last one and clips its stretches to
    # the window, the reference refines every sign change on the window grid
    for q in _EARLY_STOP_Q:
        d_grid = _assert_matches_the_full_grid(q, _window_revival(q, x_max, n_grid), x_max, n_grid)
        signs = np.sign(d_grid[d_grid != 0.0])
        changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
        wanted = max(0, math.ceil(0.5 * q - 1.0))
        assert changes == (wanted if x_max >= 15.0 else 0), (q, x_max, n_grid)


@pytest.mark.parametrize("q, n_grid, starts", [
    (6.0, 16, (1.917,)), (8.0, 16, (1.633, 5.304)), (12.0, 64, (1.314, 4.052, 7.337)),
])
def test_coarse_grid_intervals_equal_the_fine_ones(q, n_grid, starts):
    # the search on the window grid lost or moved these revivals: Q = 6 at 16
    # points found none, Q = 8 at 16 points one from x = 0, Q = 12 at 64
    # points three, the first from x = 0
    got = _window_revival(q, 100.0, n_grid)
    assert got == _window_revival(q, 100.0, 4096)
    _assert_matches_the_full_grid(q, got, 100.0, 4096)
    assert tuple(x0 for x0, _ in got[0]) == pytest.approx(starts, rel=0.0, abs=5e-4)


_COARSE_Q = [round(0.05 * k, 2) for k in range(81)] + [6.0, 8.0, 10.0, 12.0]


@pytest.mark.parametrize("n_grid", [16, 64])
def test_witnesses_do_not_depend_on_the_grid(n_grid):
    # n_grid does not enter the witnesses: on a coarse default window they
    # equal the 4096-point values, and none is negative (a backflow is a sum
    # of rises).  The search on the window grid opened revivals at x = 0
    # there: Q = 3 at 16 points gave n_blp = -0.779.
    for q in _COARSE_Q:
        ch = chan(q, 1.0, 0.3)
        got, want = ((blp(ch, w), lpp(ch, w), cb(1.1, ch, w), nm_report(ch, w))
                     for w in (TimeWindow(100.0, n_grid), TimeWindow(100.0, 4096)))
        assert got == want, q
        r = got[3]
        assert min(got[:3]) >= 0.0 and min(r.n_blp, r.n_lpp, r.n_cb) >= 0.0, q


def _counting(monkeypatch):
    # Count the scalar 1F1 calls and the array 1F1 points from here on.
    calls = []
    sizes = []
    hyp1f1 = specfun.hyp1f1
    hyp1f1_array = specfun._hyp1f1_array

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp1f1(*args, **kwargs)

    def counted_array(a, b, z, *args, **kwargs):
        sizes.append(np.size(z))
        return hyp1f1_array(a, b, z, *args, **kwargs)

    monkeypatch.setattr(specfun, "hyp1f1", counted)
    monkeypatch.setattr(specfun, "_hyp1f1_array", counted_array)
    return calls, sizes


def test_revival_search_stops_at_its_last_sign_change(monkeypatch):
    # work-count guard: at Q = 3 the one sign change is walked to and
    # refined, and the default window's end sampled, with at most 15 scalar
    # 1F1 calls (15: 6 walked in coarse cells of 0.9 and inside the one
    # where the sign changes, 8 refining, 1 at the window end; 20 when the
    # walk sampled every 0.3, 24 when it ran on the window grid and narrowed
    # the change to one grid cell) and no array call (257 array points
    # before, the whole grid of 4096 before that)
    calls, sizes = _counting(monkeypatch)
    _reduced_revival.cache_clear()
    got = _window_revival(3.0, 100.0, 4096)
    assert sum(sizes) == 0
    assert len(calls) <= 15
    monkeypatch.undo()
    assert got == _full_grid_revival(3.0, 100.0, 4096)[0]


def test_coarse_window_finds_the_first_revival(monkeypatch):
    # on a grid of spacing 3.9 the Q = 3 sign change (x = 3.004) lies in the
    # first cell, after the exact zero at x = 0, and a search on that grid
    # opened the revival at x = 0.  The walk does not depend on the window:
    # the revival starts at the mpmath root of M(2; 3/2; -x^2/4), found with
    # 15 scalar 1F1 calls and no array call.
    calls, sizes = _counting(monkeypatch)
    _reduced_revival.cache_clear()
    got = _window_revival(3.0, 16000.0, 4096)
    assert sizes == [] and len(calls) <= 15
    assert got == (((3.003950536537223, 16000.0),), True)


@pytest.mark.parametrize("q, rel", [(27.5, 1e-12), (40.5, 1e-9), (60.5, 5e-5)])
def test_walk_finds_every_sign_change_at_large_q(q, rel):
    # the walk ends at x = 32, past the last sign change of every Q up to 72:
    # it refines all ceil(Q/2 - 1) of them, each near the mpmath root of
    # M(1 - Q/2; 3/2; x^2/4).  The double 1F1 cancels near its zeros at large
    # Q, so the ends are off by up to 7e-13, 5e-10 and 2e-5 relative.
    ends = [x for stretch in _reduced_revival(q)[0] for x in stretch if x != math.inf]
    assert len(ends) == math.ceil(0.5 * q - 1.0)
    with mpmath.workdps(40):
        c = 1 - mpmath.mpf(q) / 2
        for x in ends:
            root = mpmath.findroot(lambda y: mpmath.hyp1f1(c, 1.5, y * y / 4), x)
            assert x == pytest.approx(float(root), rel=rel, abs=0.0), (q, x)


def test_walk_returns_at_q_80_within_its_call_bound(monkeypatch):
    # Q = 80 lies above the range the walk's end is measured for, and the
    # double slope is wrong near its zeros there (the large-Q kernel and
    # slope are an open item): the report still returns, with 19 intervals
    # of the true 20, in at most 1200 scalar 1F1 calls (1105).  The search on
    # the window grid found 120 with 7772 scalar calls and a 4096-point array
    # pass.
    calls, sizes = _counting(monkeypatch)
    _reduced_revival.cache_clear()
    r = nm_report(chan(80.0, 1.6, 1.0), TimeWindow.for_cutoff(1.6))
    assert len(calls) <= 1200 and sizes == []
    assert len(r.revival_intervals) <= 20


def _fine_walk_revival(q, refine=_refine_sign_change):
    """The revival search walking every multiple of ``_WALK_STEP``, the
    reference for the coarse-to-fine walk: it samples x = k _WALK_STEP,
    k = 1, 2, ..., until it has seen ceil(Q/2 - 1) sign changes between
    nonzero samples or x passes ``_WALK_END``, and refines each from the two
    walked values around it with ``refine``."""
    wanted = max(0, math.ceil(0.5 * q - 1.0))
    ends = []
    x_prev, d_prev = 0.0, 0.0
    for k in range(1, int(dephasing._WALK_END / _WALK_STEP) + 1):
        if len(ends) == wanted:
            break
        x = k * _WALK_STEP
        d = _reduced_slope(q, x)
        if d != 0.0:
            if d_prev != 0.0 and (d > 0.0) != (d_prev > 0.0):
                ends.append(refine(lambda y: _reduced_slope(q, y), x_prev, x, d_prev, d))
            x_prev, d_prev = x, d
    ends.append(math.inf)
    return tuple(zip(ends[::2], ends[1::2]))


# The fig1 lattice, and Q = 2k(1 + eps), just past the even Q where a new
# sign change enters from infinity.
_FINE_WALK_Q = [round(0.05 * k, 2) for k in range(81)] + [
    2.0 * k * (1.0 + 2.0**-52) for k in range(1, 16)
]


def test_coarse_walk_returns_the_fine_walk_doubles():
    # the walk in coarse cells of 0.9 (Q <= 12) and 0.6 (Q <= 30) walks
    # every 0.3 inside a cell where the sign changes: the same brackets and
    # seeds as the walk over every 0.3, so the same doubles
    for q in _FINE_WALK_Q:
        assert _reduced_revival.__wrapped__(q)[0] == _fine_walk_revival(q), q


@pytest.mark.parametrize("x_max", [0.02, 2.0, 3.0, 15.0, 37.5, 100.0, 160.0])
def test_stored_kernel_gives_the_exponents_at_the_ends(x_max):
    # E = s_i K from the memo's K at each kept end is the exponent evaluated
    # there, double for double, and a clipped end's is the one at the window
    # end; x = 3.0 lies just before Q = 3's first end at 3.004
    for q in _FINE_WALK_Q + [27.5, 40.5, 60.5]:
        ch, w = chan(q, 1.6, 0.3), TimeWindow(x_max / 1.6)
        s_i, x_end = dephasing._reduced_window(ch, w)
        want = tuple(
            tuple(dephasing._reduced_exponent(s_i, q, min(x, x_end)) for x in stretch)
            for stretch in _reduced_revival(q)[0] if stretch[0] < x_end
        )
        assert _revival(ch, w)[1] == want, (q, x_max)


@pytest.mark.parametrize("q_top, n", [(12.0, 2000), (30.0, 600)])
def test_coarse_walk_refines_the_fine_walk_brackets(q_top, n, monkeypatch):
    # every bracket and seed pair handed to the refiner, over seeded Q in
    # (2, q_top], is the fine walk's: the refiner is a function of them
    # alone, so the ends are the same doubles.  The refiner is stubbed out,
    # and the memo bypassed, to keep the sweep short.
    def recorder(out):
        def refine(g, lo, hi, g_lo, g_hi):
            out.append((lo, hi, g_lo, g_hi))
            return hi
        return refine

    qs = 2.0 + (q_top - 2.0) * (1.0 - np.random.default_rng(int(q_top)).random(n))
    for q in qs.tolist():
        got, want = [], []
        monkeypatch.setattr(dephasing, "_refine_sign_change", recorder(got))
        _reduced_revival.__wrapped__(q)
        _fine_walk_revival(q, recorder(want))
        assert got == want and len(got) == math.ceil(0.5 * q - 1.0), q


@pytest.mark.parametrize("x_max, n_grid", [
    (100.0, 4096), (100.0, 1025), (15.0, 2048), (0.02, 2048), (160.0, 4096), (37.5, 513),
])
def test_scalar_end_sample_flags_as_the_array_one(x_max, n_grid):
    # the truncation flag comes from the scalar window-end sample, where the
    # whole-grid search read the vectorized one; at even Q both are -0.0 on
    # the default window, a closed interval rather than a truncation
    z = np.array([-0.25 * x_max * x_max])
    for q in _EARLY_STOP_Q:
        array_end = -x_max * specfun._hyp1f1_array(0.5 * (q + 1.0), 1.5, z)[0]
        assert (_reduced_slope(q, x_max) > 0.0) == (array_end > 0.0), (q, x_max)


def test_revival_search_rejects_non_finite_slope(monkeypatch):
    # a NaN slope sample would read as "not rising" and move or hide a sign
    # change; the walk and the window-end sample name its x
    hyp1f1 = specfun.hyp1f1

    def nan_between(lo, hi):
        def planted(a, b, z, *args, **kwargs):
            return math.nan if lo < -z < hi else hyp1f1(a, b, z, *args, **kwargs)
        return planted

    def inf_at_end(a, b, z, *args, **kwargs):
        return math.inf if z == -2500.0 else hyp1f1(a, b, z, *args, **kwargs)

    # at Q = 3 the walk samples x = 0.9, 1.8, 2.7, 3.6 (multiples of three
    # steps) and, in the cell (2.7, 3.6] where the sign changes, x = 3.0:
    # u = x^2/4 = 0.2025 is the first coarse sample, 2.25 a fine one
    for (lo, hi), k in (((0.2, 0.21), 3), ((2.2, 2.3), 10)):
        monkeypatch.setattr(specfun, "hyp1f1", nan_between(lo, hi))
        _reduced_revival.cache_clear()
        x = k * _WALK_STEP
        with pytest.raises(DomainError, match=re.escape(f"nan at x = {x!r}, not finite")):
            _reduced_revival(3.0)
    monkeypatch.setattr(specfun, "hyp1f1", inf_at_end)
    with pytest.raises(DomainError, match=r"-inf at x = 100\.0, not finite"):
        _window_revival(3.0, 100.0, 4096)


@pytest.mark.parametrize("q, reaches_end", [(4.0, True), (6.0, False), (8.0, True)])
def test_even_q_tail_is_not_a_truncation(q, reaches_end):
    # at even Q the sampled slope is -0.0 from x ~ 55 on, window end included:
    # the exact slope -x e^-u M(1 - Q/2; 3/2; u) underflows there.  After an
    # odd number of sign changes (Q = 4, 8) alpha still rises, by less than
    # e^-745, so the last interval reaches the window end unflagged; after an
    # even number (Q = 6) it has closed.  The search samples nothing past
    # the last sign change but the window end, which alone sets the flag.
    w = TimeWindow.for_cutoff(1.6)
    assert _reduced_slope(q, 100.0) == 0.0
    intervals, _, truncated = _revival(chan(q, 1.6, 1.0), w)
    assert truncated is False
    assert (intervals[-1][1] == w.t_max) is reaches_end
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        nm_report(chan(q, 1.6, 1.0), w)


# ---------------------------------------------------------------------------
# log backflow
# ---------------------------------------------------------------------------

def test_log_blp_matches_log_of_blp():
    w = TimeWindow.for_cutoff(1.6)
    ch = chan(3.0, 1.6, 1.0)
    assert nm_report(ch, w).log_n_blp == pytest.approx(math.log(blp(ch, w)), rel=0.0, abs=1e-12)


def test_log_blp_skips_intervals_where_the_exponent_does_not_fall():
    # the large-Q kernel can give E(end) >= E(start) on a spurious interval
    # (Q = 101 on the default window has such intervals); it adds nothing
    assert _log_blp(((1.0, 1.0),)) == -math.inf
    assert _log_blp(((1.0, 1.0), (2.0, 1.0), (0.5, 0.7))) == _log_blp(((2.0, 1.0),))
    assert _log_blp(((2.0, 1.0),)) == pytest.approx(math.log(math.exp(-2.0) - math.exp(-4.0)))


def test_log_blp_survives_underflow():
    # Q = 3, gamma0 = 0.01, B = 1: the backflow is about e^-167585, far below
    # the double range, while its log is an ordinary number.  Oracle: the
    # mpmath root of M(2; 3/2; -x^2/4) and the exponent
    # E = 16 pi B^2 Gamma(2) / (Gamma(4) gamma0^2) (1 - M(1; 1/2; -x^2/4)).
    g0 = 0.01
    r = nm_report(chan(3.0, g0, 1.0), TimeWindow.for_cutoff(g0))
    assert r.n_blp == 0.0
    assert r.log_n_blp == pytest.approx(-167585.14, rel=0.0, abs=5e-3)
    with mpmath.workdps(40):
        x0 = mpmath.findroot(lambda x: mpmath.hyp1f1(2, 1.5, -x * x / 4), 3.0)
        scale = 16 * mpmath.pi / 6 / mpmath.mpf(g0) ** 2

        def e(x):
            return scale * (1 - mpmath.hyp1f1(1, 0.5, -x * x / 4))

        want = -2 * e(100) + mpmath.log(-mpmath.expm1(-2 * (e(x0) - e(100))))
    assert r.revival_intervals[0][0] == pytest.approx(float(x0) / g0, rel=1e-13, abs=0.0)
    assert r.log_n_blp == pytest.approx(float(want), rel=1e-13, abs=0.0)
