"""Non-Markovianity measures for the dephasing channel.

Three witnesses built on one primitive, the positive variation of a scalar
signal over a time window:

* BLP: information backflow, positive variation of the trace distance between
  the |0>, |1> antipodal pair, which for pure dephasing equals alpha(t)^2.
* LPP: volume backflow, positive variation of |det M(t)| for the generically
  assembled Bloch affine map.
* CB: coherence backflow of the evolved Bell-like family at angle theta.

For this channel family every witness is a strictly increasing function of
alpha, so revival intervals coincide across measures: all read them, and
E = -ln alpha at their ends, from the kernel layer (``dephasing._revival``).
Each witness telescopes its own function of alpha over the ends, evaluated
once on the array of alpha at every end (LPP through one stacked Bloch map);
``nm_report`` adds ln n_blp, formed from the exponents, which stays finite
where n_blp underflows to 0.

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

import numpy as np

from . import correlations, dephasing, states
from .dephasing import TimeWindow, _reduced_exponent, _reduced_slope, _reduced_window, _revival
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
