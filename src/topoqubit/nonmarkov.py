"""Non-Markovianity measures for the dephasing channel.

Three witnesses built on one primitive, the positive variation of a scalar
signal over a time window:

* BLP: information backflow, positive variation of the trace distance between
  the |0>, |1> antipodal pair, which for pure dephasing equals alpha(t)^2.
* LPP: volume backflow, positive variation of |det M(t)| for the generically
  assembled Bloch affine map.
* CB: coherence backflow of the evolved Bell-like family at angle theta.

For this channel family every witness is a strictly increasing function of
alpha, so revival intervals coincide across measures.  With x = t gamma0,
the exponent E = -ln alpha has the slope dE/dt = s_d t M((Q+1)/2; 3/2; -x^2/4)
with s_d > 0 for B > 0, so alpha rises exactly where that 1F1 is negative: a
set of reduced times fixed by Q alone, not by B, gamma0 or the window.  It is
searched from the sign of the 1F1 alone, once per Q, and memoized, the one
cache of this module.  The 1F1 changes sign exactly ceil(Q/2 - 1) times for
Q > 2, so the scalar 1F1 walks x only until it has seen them all, in coarse
cells of 0.9, 0.6 or 0.3 by Q and in steps of 0.3 inside a cell where the
sign changes; each sign change is refined by bracketing secant steps seeded
with the two walked values around it.  A window clips the stretches to its
end x_max = t_max gamma0, and the sign of the slope sampled there says whether
the last revival is cut off; the window's ``n_grid`` does not enter the
witnesses.  A channel scales the clipped intervals by 1/gamma0 and evaluates
E at their ends only, so no kernel profile is summed and no revival is lost
where alpha underflows.  Each witness telescopes its own function of alpha
over the ends, evaluated once on the array of alpha at every end (LPP
through one stacked Bloch map); ``nm_report`` adds ln n_blp, formed from the
exponents, which stays finite where n_blp underflows to 0.

All measures vanish identically for spectral exponents Q <= 2, where the
search returns without sampling anything.  Above it every field B > 0 has
revivals, but a witness is nonzero in double precision only where the field
is weak enough that alpha stays representable over them.

The brute-force pair scan checks the BLP maximum over antipodal pairs
through the public single-qubit path: ``evolve_single`` and
``trace_distance`` over the whole time grid at once, one pair per polar
angle, since phase covariance makes the azimuth irrelevant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import correlations, dephasing, states
from .dephasing import TimeWindow, _reduced_exponent, _reduced_slope, _reduced_window
from .errors import DomainError, HorizonWarning

__all__ = [
    "TimeWindow",
    "NonMarkovReport",
    "blp",
    "lpp",
    "cb",
    "blp_pair_scan",
    "critical_q_scan",
    "nm_report",
]

# A BLP measure above this threshold fires, in critical_q_scan and nm-scan.
_FIRING_THRESHOLD = 1e-10

_TRUNCATED = "derivative still positive at t_max; a revival is truncated by the window"


@dataclass(frozen=True, slots=True)
class NonMarkovReport:
    """The three witnesses, the refined revival intervals and ln n_blp.

    ``log_n_blp`` is formed from the decoherence exponents at the interval
    ends, so it stays finite where ``n_blp`` underflows to 0; it is -inf when
    there is no revival.
    """

    n_blp: float
    n_lpp: float
    n_cb: float
    revival_intervals: tuple[tuple[float, float], ...]
    log_n_blp: float


def _refine_sign_change(g, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    # Narrow a bracket over which g changes sign, seeded with the nonzero
    # values g_lo, g_hi at its ends, until no double lies strictly inside it.
    # Each step takes the secant point, pushed toward the end that was not
    # moved last by 2 ulp, doubling while the same end keeps moving, so the
    # bracket shrinks from both sides; when the same end moves twice in a
    # row the value kept at the other end is halved (the Illinois step), so
    # the next secant point leans toward that end too.  A point outside the
    # bracket is replaced by the midpoint.  Only the seeds' signs are trusted
    # from the caller, inner points are evaluated exactly.
    lo_positive = g_lo > 0.0
    moved = 0  # -1 when lo moved last, +1 when hi did
    push = 2.0
    for _ in range(200):
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        x -= moved * push * math.ulp(x)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        gx = g(x)
        if gx == 0.0:
            return x
        side = -1 if (gx > 0.0) == lo_positive else 1
        if side < 0:
            lo, g_lo = x, gx
        else:
            hi, g_hi = x, gx
        if side == moved:
            push *= 2.0
            if side < 0:
                g_hi *= 0.5
            else:
                g_lo *= 0.5
        else:
            push = 2.0
        moved = side
    return 0.5 * (lo + hi)


# Reduced-time step of the revival search's walk, below the narrowest gap
# between neighbouring sign changes of the slope (and between x = 0 and the
# first): 1.31 for Q <= 12, 0.82 for Q <= 30, 0.52 for Q <= 72.  The walk
# samples every stride-th multiple of the step, the stride chosen by Q so
# that a coarse cell (0.9 for Q <= 12, 0.6 for Q <= 30) is still narrower
# than those gaps and holds at most one sign change; only a cell whose ends
# differ in sign is walked at the step itself, up to the change.
_WALK_STEP = 0.3
# (largest Q, stride) in increasing Q; stride 1 above the last.
_WALK_STRIDES = ((12.0, 3), (30.0, 2))
# Reduced time where the walk ends.  A 60-digit mpmath scan of the zeros of
# M(1 - Q/2; 3/2; x^2/4), over Q = 2.1, 2.2, ..., 72 and Q = 2k(1 + eps) for
# k = 1..35, where a new zero enters from infinity, found all ceil(Q/2 - 1)
# of them at x <= 29.10 (the largest at Q = 70(1 + eps)).  Larger Q is the
# open large-Q item of the ROADMAP (a kernel and slope without cancellation):
# the last zero moves out, and above Q ~ 40 the double slope loses digits,
# enough at Q = 71.9 to give walked samples the wrong sign near x = 12.7 and
# end the walk one zero short.
_WALK_END = 32.0


@lru_cache(maxsize=128)
def _reduced_revival(q: float) -> tuple[tuple[float, float], ...]:
    """Stretches of reduced time x = t gamma0 > 0 on which alpha rises, for
    every field B > 0, cutoff and window: one search per Q.

    The slope ``_reduced_slope`` changes sign exactly ceil(Q/2 - 1) times for
    Q > 2 and never for Q <= 2: it equals -x e^-u M(1 - Q/2; 3/2; u) with
    u = x^2/4 (Kummer's transformation, DLMF 13.2.39), and M(c; b; u) with
    c < 0 < b has exactly ceil(-c) positive zeros (DLMF 13.9.1).  So the
    scalar 1F1 walks x = k ``_WALK_STEP``, k = 1, 2, ..., until it has seen
    that many sign changes between nonzero samples or x passes
    ``_WALK_END``; each change is refined on the scalar 1F1 from the two
    walked values around it.  The walk is coarse to fine: it samples every
    stride-th k (``_WALK_STRIDES``), and walks the k inside a coarse cell
    only where the cell's ends differ in sign, up to the change.  The cell
    holds one change, so the refiner gets the bracket and the seeds of the
    walk over every k, and returns the same double.  The slope is
    -x + O(x^3), negative up to the first change, so the stretches run from
    the first refined end to the second, the third to the fourth, and so on;
    after an odd count the last one ends at inf.  At Q = 3 the search makes
    14 scalar 1F1 calls (6 walked, 8 refining).  A non-finite sample raises
    DomainError naming its x.
    """
    slope = partial(_reduced_slope, q)
    wanted = max(0, math.ceil(0.5 * q - 1.0))
    stride = next((n for q_top, n in _WALK_STRIDES if q <= q_top), 1)
    k_end = int(_WALK_END / _WALK_STEP)
    ends: list[float] = []
    k_prev, d_prev = 0, 0.0  # the last nonzero sample walked
    for k_cell in (*range(stride, k_end, stride), k_end):
        if len(ends) == wanted:
            break
        d_cell = slope(k_cell * _WALK_STEP)
        if d_cell == 0.0:
            continue
        if d_prev != 0.0 and (d_cell > 0.0) != (d_prev > 0.0):
            # The cell's one change: walk its inner k up to it.
            k, d = k_cell, d_cell
            for k_in in range(k_prev + 1, k_cell):
                d_in = slope(k_in * _WALK_STEP)
                if d_in != 0.0:
                    if (d_in > 0.0) != (d_prev > 0.0):
                        k, d = k_in, d_in
                        break
                    k_prev, d_prev = k_in, d_in
            ends.append(
                _refine_sign_change(slope, k_prev * _WALK_STEP, k * _WALK_STEP, d_prev, d)
            )
        k_prev, d_prev = k_cell, d_cell
    ends.append(math.inf)
    return tuple(zip(ends[::2], ends[1::2]))


def _revival(
    ch: dephasing.DephasingChannel, w: TimeWindow
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...], bool]:
    """Revival intervals of alpha over the window, the exponent E = -ln alpha
    at their ends, and whether the last interval is cut off by the window.

    The intervals are the memoized reduced stretches of Q clipped to
    x_max = t_max gamma0 and scaled by 1/gamma0: a stretch that starts at or
    after x_max is dropped, and one that reaches past it ends exactly at
    ``w.t_max``.  The scalar slope sampled at x_max sets the flag: it is
    True where the slope is positive there.  Every witness is a strictly
    increasing function of alpha, so all three share this one search.

    For Q <= 2 nothing is sampled: dI/dt is proportional to
    t M((Q+1)/2; 3/2; -u) = t e^-u M(1 - Q/2; 3/2; u) (Kummer's
    transformation), which has no positive zero there (the count
    ceil(Q/2 - 1) of ``_reduced_revival`` is 0), so alpha decreases
    monotonically and never revives.  Neither does it for B = 0, where alpha
    stays 1.
    """
    q, g0 = ch.env.q, ch.env.gamma0
    if q <= 2.0:
        return (), (), False
    s_i, x_max = _reduced_window(ch, w)
    if ch.b == 0.0:
        return (), (), False
    truncated = _reduced_slope(q, x_max) > 0.0
    x_intervals = tuple((x0, min(x1, x_max)) for x0, x1 in _reduced_revival(q) if x0 < x_max)
    intervals = tuple((x0 / g0, w.t_max if x1 == x_max else x1 / g0) for x0, x1 in x_intervals)
    exponents = tuple(
        (_reduced_exponent(s_i, q, x0), _reduced_exponent(s_i, q, x1)) for x0, x1 in x_intervals
    )
    return intervals, exponents, truncated


def _revival_exponents(
    ch: dephasing.DephasingChannel, w: TimeWindow
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]:
    # _revival's intervals and exponents, and one HorizonWarning, pointing at
    # the caller of the public witness, when the last interval is truncated.
    intervals, exponents, truncated = _revival(ch, w)
    if truncated:
        warnings.warn(_TRUNCATED, HorizonWarning, stacklevel=3)
    return intervals, exponents


def _backflow(exponents: tuple[tuple[float, float], ...], g) -> float:
    # Positive variation of g(alpha(t)) for a strictly increasing g, from the
    # exponents E = -ln alpha at the ends of each revival interval: g is
    # called once, on the (n, 2) array of alpha at the starts and ends, and
    # the differences are summed in interval order.  An interval whose end
    # term does not exceed its start term adds nothing, as in _log_blp: the
    # exponent can rise by an ulp over a revival in rounding.
    if not exponents:
        return 0.0
    ends = np.array([[math.exp(-e_start), math.exp(-e_end)] for e_start, e_end in exponents])
    value = 0.0
    for g_start, g_end in g(ends).tolist():
        if g_end > g_start:
            value += g_end - g_start
    return value


def _log_blp(exponents: tuple[tuple[float, float], ...]) -> float:
    # ln of sum_i (e^{-2 E1_i} - e^{-2 E0_i}), one term
    # -2 E1 + ln(-expm1(-2 (E0 - E1))) per interval, summed in log space.
    # An interval over which E does not fall adds nothing.
    terms = [
        -2.0 * e1 + math.log(-math.expm1(-2.0 * (e0 - e1))) for e0, e1 in exponents if e0 > e1
    ]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(v - top) for v in terms))


def _blp_signal(a: np.ndarray) -> np.ndarray:
    return a**2


def _lpp_signal(a: np.ndarray) -> np.ndarray:
    return np.abs(states.bloch_affine_map(a).det)


def _cb_signal(theta: float):
    # The l1 coherence as a function of an array of alpha; theta is checked
    # here, before any search.
    states._check_theta(theta)
    return lambda a: correlations.coherence_l1(states.evolved_x_state(theta, a))


def blp(ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Information-backflow measure: positive variation of the trace distance
    of the antipodal pole pair, which dephasing sends to alpha(t)^2."""
    return _backflow(_revival_exponents(ch, w)[1], _blp_signal)


def lpp(ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Volume-backflow measure: positive variation of |det M(t)| with M the
    generically assembled Bloch affine map."""
    return _backflow(_revival_exponents(ch, w)[1], _lpp_signal)


def cb(theta: float, ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Coherence-backflow measure for the evolved Bell-like family at angle
    ``theta``: positive variation of the l1 coherence sin(theta) alpha(t)^2."""
    signal = _cb_signal(theta)
    return _backflow(_revival_exponents(ch, w)[1], signal)


def blp_pair_scan(
    ch: dephasing.DephasingChannel, w: TimeWindow, n_angles: int = 9
) -> tuple[tuple[float, float], float]:
    """Scan antipodal Bloch pairs for the one maximizing information backflow.

    The axes are ``n_angles`` polar angles theta in [0, pi/2] at azimuth
    phi = 0 alone: the channel is phase covariant, so all phi at one theta
    give the same trace distances.  Its axis states (I +- n.sigma)/2 are
    real, built from sigma_x and sigma_z alone, so each pair (n, -n) is
    evolved over the whole grid at once by ``evolve_single`` and compared by
    ``trace_distance`` in float64.  The discrete positive variation of that
    distance is accumulated on the grid; a later theta wins only with a
    strictly greater one.  Only alpha = exp(-E) is needed, so no d alpha/dt
    profile is summed.  Returns ((theta, 0.0) of the best axis, its
    variation).

    Dephasing sends the pair at polar angle theta to the trace distance
    sqrt(alpha^4 cos^2 theta + alpha^2 sin^2 theta): alpha^2 for the polar
    pair, alpha for an equatorial one.  Over a revival from alpha_0 to
    alpha_1 the polar pair gains more only if alpha_0 + alpha_1 > 1, so the
    winning axis depends on where alpha revives: at Q = 3, gamma0 = 1.6,
    B = 1 the equatorial pair's variation is about 19 times the polar one.
    """
    if not isinstance(n_angles, (int, np.integer)):
        raise DomainError(f"n_angles must be an integer, got {n_angles!r}")
    if n_angles < 2:
        raise DomainError(f"n_angles must be >= 2, got {n_angles}")
    with np.errstate(under="ignore"):
        avals = np.exp(-dephasing._exponent_values(ch, w.times()))
    best_val = -1.0
    best_theta = 0.0
    for th in np.linspace(0.0, 0.5 * math.pi, n_angles).tolist():
        nvec = math.sin(th) * states.PAULIS[0] + math.cos(th) * states.PAULIS[2]
        r_plus = states.DensityMatrix2(0.5 * (np.eye(2) + nvec))
        r_minus = states.DensityMatrix2(0.5 * (np.eye(2) - nvec))
        # Fully dephased points (alpha = 0) send both members to I/2.
        dist = states.trace_distance(
            states.evolve_single(r_plus, avals), states.evolve_single(r_minus, avals)
        )
        val = float(np.clip(np.diff(dist), 0.0, None).sum())
        if val > best_val:
            best_val, best_theta = val, th
    return (best_theta, 0.0), best_val


def critical_q_scan(
    gamma0: float,
    q_range: tuple[float, float] = (0.0, 12.0),
    w: TimeWindow | None = None,
    b: float = 1.0,
) -> float | None:
    """Smallest spectral exponent whose BLP measure fires (> 1e-10), located
    by bisection to 1e-3 resolution.

    A step with 2 < Q <= 4 and b > 0 is first decided from the window end.
    The slope changes sign once there, so the one rising stretch, if it
    starts inside the window, ends at t_max and n_blp = alpha(t_max)^2 -
    alpha(t_1)^2 <= alpha(t_max)^2; in double too, since the backflow
    subtracts a term >= 0 from that end term, the same double.  Where
    alpha(t_max)^2 is at most the threshold the step does not fire and no
    revival search runs; every other step runs the search as ``blp`` does.
    A cold scan at gamma0 = 1.6 makes 229 scalar 1F1 calls and 9 searches,
    at gamma0 = 1.0 187 and 7.

    Warns at most once, at the caller, when the window truncates a revival
    at any step, judged by the sign of the slope at the window end, which a
    bounded step samples only while no truncation has been seen.  Returns
    None when no exponent in ``q_range`` fires, e.g. for b = 0 or a field so
    strong that every revival underflows.
    """
    q_lo, q_hi = q_range
    if not (0.0 <= q_lo < q_hi):
        raise DomainError(f"q_range must satisfy 0 <= lo < hi, got {q_range}")
    if w is None:
        w = TimeWindow.for_cutoff(gamma0)
    truncated = False

    def fires(q: float) -> bool:
        nonlocal truncated
        ch = dephasing.DephasingChannel(dephasing.OhmicEnvironment(q, gamma0), b)
        if 2.0 < q <= 4.0 and b > 0.0:
            s_i, x_max = _reduced_window(ch, w)
            alpha_end = math.exp(-_reduced_exponent(s_i, q, x_max))
            if alpha_end * alpha_end <= _FIRING_THRESHOLD:
                truncated = truncated or _reduced_slope(q, x_max) > 0.0
                return False
        _, exponents, cut = _revival(ch, w)
        truncated = truncated or cut
        return _backflow(exponents, _blp_signal) > _FIRING_THRESHOLD

    if not fires(q_hi):
        q_c = None
    elif fires(q_lo):
        q_c = q_lo
    else:
        lo, hi = q_lo, q_hi
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if fires(mid):
                hi = mid
            else:
                lo = mid
        q_c = hi
    if truncated:
        warnings.warn(_TRUNCATED, HorizonWarning, stacklevel=2)
    return q_c


def nm_report(
    ch: dephasing.DephasingChannel, w: TimeWindow, theta: float = 0.5 * math.pi
) -> NonMarkovReport:
    """Evaluate all three witnesses, the revival intervals and ln n_blp from
    one search, warning at most once when the window truncates a revival."""
    cb_signal = _cb_signal(theta)
    intervals, exponents = _revival_exponents(ch, w)
    return NonMarkovReport(
        n_blp=_backflow(exponents, _blp_signal),
        n_lpp=_backflow(exponents, _lpp_signal),
        n_cb=_backflow(exponents, cb_signal),
        revival_intervals=intervals,
        log_n_blp=_log_blp(exponents),
    )
