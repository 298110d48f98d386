"""Dephasing kernel of a topological qubit in an Ohmic-like environment.

The environment is characterized by a spectral exponent Q >= 0 and a cutoff
rate gamma0; coupling to an external field of strength B produces a pure
dephasing channel whose single-qubit coherence factor is

    alpha(t) = exp(-2 B^2 |beta| I_Q(t)),

with beta a negative Q-dependent coupling constant and I_Q(t) the integrated
noise kernel.  Everything here reduces to the confluent hypergeometric
machinery in :mod:`topoqubit.specfun`: with a = (Q-1)/2, u = (t gamma0)^2/4,
I_Q = 2 gamma0^(Q-1) Gamma(a+1) K(a, u), one pole-free K for every Q.  The
exponent 2 B^2 |beta| I_Q is formed in reduced units, in which the cutoff
powers of beta and I_Q cancel (:func:`_exponent_scales`).

With x = t gamma0, the exponent E = -ln alpha has the slope
dE/dt = s_d t M((Q+1)/2; 3/2; -x^2/4) with s_d > 0 for B > 0, so alpha rises
exactly where that 1F1 is negative: a set of reduced times fixed by Q alone,
not by B, gamma0 or the window.  It is searched from the sign of the 1F1
alone, once per Q, and memoized with K at each end it finds, the package's
one result cache.  The 1F1 changes sign exactly ceil(Q/2 - 1) times for
Q > 2, so the scalar 1F1 walks x only until it has seen them all, in coarse
cells of 0.9, 0.6 or 0.3 by Q and in steps of 0.3 inside a cell where the
sign changes; each sign change is refined by bracketing secant steps seeded
with the two walked values around it.  A window clips the stretches to its
end x_max = t_max gamma0, and the sign of the slope sampled there says
whether the last revival is cut off; ``n_grid`` does not enter.  A channel
scales the clipped intervals by 1/gamma0 and forms E = s_i K at their ends
from the stored K, evaluating K only at a clipped end, so no kernel profile
is summed and no revival is lost where alpha underflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError
from .specfun import _hyp1f1_array, _kernel_array, gamma

__all__ = [
    "TimeWindow",
    "OhmicEnvironment",
    "DephasingChannel",
    "beta",
    "i_q",
    "di_q_dt",
    "alpha",
    "dalpha_dt",
    "dalpha_db",
    "kappa_to_q",
    "i_q_profile",
    "alpha_profile",
]


@dataclass(frozen=True, slots=True)
class OhmicEnvironment:
    """Fermionic environment with spectral exponent ``q`` and cutoff ``gamma0``.

    ``q`` < 1 is sub-Ohmic, ``q`` = 1 Ohmic, ``q`` > 1 super-Ohmic.
    """

    q: float
    gamma0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and self.q >= 0.0):
            raise DomainError(f"spectral exponent q must be finite and >= 0, got {self.q}")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0.0):
            raise DomainError(f"cutoff gamma0 must be finite and > 0, got {self.gamma0}")


@dataclass(frozen=True, slots=True)
class DephasingChannel:
    """A dephasing channel: an environment plus an external field strength."""

    env: OhmicEnvironment
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise DomainError(f"field strength b must be finite and >= 0, got {self.b}")

    @property
    def beta_abs(self) -> float:
        """|beta| = 4 pi / (Gamma(Q+1) gamma0^(Q+1))."""
        return -beta(self.env)


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Uniform grid of ``n_grid`` times over [0, t_max].

    The witnesses read ``t_max`` alone: their revival intervals are the
    memoized reduced stretches of their Q, clipped to t_max gamma0, so the
    grid does not enter them.  ``blp_pair_scan`` and the time-series modes
    sample ``times()``.
    """

    t_max: float
    n_grid: int = 4096

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise DomainError(f"t_max must be finite and > 0, got {self.t_max}")
        if not isinstance(self.n_grid, (int, np.integer)):
            raise DomainError(f"n_grid must be an integer, got {self.n_grid!r}")
        if self.n_grid < 16:
            raise DomainError(f"n_grid must be >= 16, got {self.n_grid}")

    @classmethod
    def for_cutoff(cls, gamma0: float, n_grid: int = 4096) -> "TimeWindow":
        """Window covering t gamma0 in [0, 100], where the kernel has settled."""
        if not (gamma0 > 0.0 and 0.0 < 100.0 / gamma0 < math.inf):
            raise DomainError(f"gamma0 must be > 0 with 100/gamma0 finite, got gamma0={gamma0!r}")
        return cls(t_max=100.0 / gamma0, n_grid=n_grid)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_grid)


def _cutoff_power(env: OhmicEnvironment, p: float) -> float:
    # gamma0 ** p, which must stay a normal double: an overflow would raise
    # OverflowError, an underflow would divide by zero or lose digits.
    try:
        v = env.gamma0**p
    except OverflowError:
        v = math.inf
    if not (sys.float_info.min <= v < math.inf):
        raise DomainError(
            f"gamma0 ** {p!r} = {env.gamma0!r} ** {p!r} leaves the normal double range"
        )
    return v


def beta(env: OhmicEnvironment) -> float:
    """Signed coupling constant beta = -4 pi / (Gamma(Q+1) gamma0^(Q+1)) < 0.

    Raises DomainError when Gamma(Q+1) overflows (Q > ~170.6) or when
    gamma0^(Q+1) overflows or underflows.
    """
    return -4.0 * math.pi / (gamma(env.q + 1.0) * _cutoff_power(env, env.q + 1.0))


def _check_time(t: float) -> None:
    if not t >= 0.0:  # a NaN too, named here rather than as a series failure
        raise DomainError(f"time must be >= 0, got {t}")


def i_q(env: OhmicEnvironment, t: float) -> float:
    """Integrated noise kernel I_Q(t); nonnegative, I_Q(0) = 0.

        I_Q = 2 gamma0^(Q-1) Gamma((Q-1)/2) [1 - M((Q-1)/2; 1/2; -t^2 gamma0^2/4)],

    evaluated as 2 gamma0^(Q-1) Gamma(a+1) K(a, u), which at Q = 1 is its
    analytic limit t^2 gamma0^2 2F2({1,1}; {3/2,2}; -t^2 gamma0^2/4).
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    x = t * env.gamma0
    a = 0.5 * (env.q - 1.0)
    pref = 2.0 * _cutoff_power(env, env.q - 1.0) * gamma(a + 1.0)
    return pref * specfun._kernel(a, 0.25 * x * x)


def di_q_dt(env: OhmicEnvironment, t: float) -> float:
    """Time derivative of the integrated kernel, dI_Q/dt.

    One contiguous relation, smooth through Q -> 1:
        dI_Q/dt = 2 Gamma((Q+1)/2) gamma0^(Q+1) t M((Q+1)/2; 3/2; -t^2 gamma0^2/4)
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    x = t * env.gamma0
    a1 = 0.5 * (env.q + 1.0)
    z = -0.25 * x * x
    return 2.0 * gamma(a1) * _cutoff_power(env, env.q + 1.0) * t * specfun.hyp1f1(a1, 1.5, z)


def _exponent_scales(ch: DephasingChannel) -> tuple[float, float]:
    """(s_i, s_d) with E = 2 B^2 |beta| I_Q = s_i K(a, u) and
    dE/dt = s_d t M(a+1; 3/2; -u): s_d = 16 pi B^2 Gamma(a+1)/Gamma(Q+1),
    from lgamma, and s_i = s_d / gamma0^2, finite or a DomainError."""
    q = ch.env.q
    g0 = ch.env.gamma0
    try:
        ratio = math.exp(math.lgamma(0.5 * (q + 1.0)) - math.lgamma(q + 1.0))
    except OverflowError:
        raise DomainError(f"lnGamma(Q+1) overflows the double range at Q={q!r}") from None
    s_d = 16.0 * math.pi * ch.b * ch.b * ratio
    s_i = s_d / g0 / g0
    if not math.isfinite(s_i):
        raise DomainError(f"exponent scale B^2/gamma0^2 overflows at B={ch.b!r}, gamma0={g0!r}")
    return s_i, s_d


def _reduced_exponent(s_i: float, q: float, x: float) -> float:
    # E = -ln alpha at reduced time x = t gamma0; at x = x_max it is the exponent
    # of a clipped interval's end, so a bound built on it is n_blp's own end term.
    return s_i * specfun._kernel(0.5 * (q - 1.0), 0.25 * x * x)


def _reduced_slope(q: float, x: float) -> float:
    """-x M((Q+1)/2; 3/2; -x^2/4): for B > 0 it has the sign of d alpha/dt at
    t = x / gamma0, whatever B and gamma0.  A non-finite value raises
    DomainError naming x: a NaN would read as "not rising" and move or hide
    a sign change."""
    d = -x * specfun.hyp1f1(0.5 * (q + 1.0), 1.5, -0.25 * x * x)
    if not math.isfinite(d):
        raise DomainError(f"reduced slope is {d} at x = {x!r}, not finite")
    return d


def _reduced_window(ch: DephasingChannel, w: TimeWindow) -> tuple[float, float]:
    # (s_i, x_max = t_max gamma0), E = s_i K((Q-1)/2, x^2/4) at reduced time x,
    # or a ConvergenceError where x_max^2/4 overflows.
    s_i, _ = _exponent_scales(ch)
    x_max = w.t_max * ch.env.gamma0
    if not math.isfinite(0.25 * x_max * x_max):
        raise ConvergenceError("kernel argument (t gamma0)^2/4 leaves the double range")
    return s_i, x_max


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
def _reduced_revival(q: float) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Stretches of reduced time x = t gamma0 > 0 on which alpha rises, for
    every field B > 0, cutoff and window, and K((Q-1)/2, x^2/4) at each
    finite end in order (none for an end at inf): one search per Q.

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
    14 scalar 1F1 calls (6 walked, 8 refining) and one kernel call.  A
    non-finite sample raises DomainError naming its x.
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
    k_ends = tuple(specfun._kernel(0.5 * (q - 1.0), 0.25 * x * x) for x in ends)
    ends.append(math.inf)
    return tuple(zip(ends[::2], ends[1::2])), k_ends


def _revival(
    ch: DephasingChannel, w: TimeWindow
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...], bool]:
    """Revival intervals of alpha over the window, the exponent E = -ln alpha
    at their ends, and whether the last interval is cut off by the window.

    The intervals are the memoized reduced stretches of Q clipped to
    x_max = t_max gamma0 and scaled by 1/gamma0: a stretch that starts at or
    after x_max is dropped, and one that reaches past it ends exactly at
    ``w.t_max``.  E is s_i times the memoized K at each end inside the
    window, the doubles of ``_reduced_exponent`` there; K is evaluated only at
    a clipped end.  The scalar slope sampled at x_max sets the flag: it is
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
    stretches, k_ends = _reduced_revival(q)
    x_intervals = tuple((x0, min(x1, x_max)) for x0, x1 in stretches if x0 < x_max)
    intervals = tuple((x0 / g0, w.t_max if x1 == x_max else x1 / g0) for x0, x1 in x_intervals)
    x_ends = [x for ends in x_intervals for x in ends]  # memoized ends but a clipped last
    e_ends = [s_i * k for x, k in zip(x_ends, k_ends) if x < x_max]
    if len(e_ends) < len(x_ends):
        e_ends.append(_reduced_exponent(s_i, q, x_max))
    return intervals, tuple(zip(e_ends[::2], e_ends[1::2])), truncated


def _exponent(ch: DephasingChannel, t: float) -> float:
    # E(t) = 2 B^2 |beta| I_Q(t).
    _check_time(t)
    return _reduced_exponent(_exponent_scales(ch)[0], ch.env.q, t * ch.env.gamma0)


def alpha(ch: DephasingChannel, t: float) -> float:
    """Single-qubit coherence factor alpha(t) = exp(-2 B^2 |beta| I_Q(t))."""
    return math.exp(-_exponent(ch, t))


def dalpha_dt(ch: DephasingChannel, t: float) -> float:
    """d alpha / dt = -2 B^2 |beta| (dI_Q/dt) alpha(t)."""
    _check_time(t)
    if ch.b == 0.0 or t == 0.0:
        return 0.0
    s_i, s_d = _exponent_scales(ch)
    x = t * ch.env.gamma0
    d = -s_d * t * specfun.hyp1f1(0.5 * (ch.env.q - 1.0) + 1.0, 1.5, -0.25 * x * x)
    return d * math.exp(-_reduced_exponent(s_i, ch.env.q, x))


def dalpha_db(ch: DephasingChannel, t: float) -> float:
    """Field sensitivity d alpha / dB = -4 B |beta| I_Q(t) alpha(t) = -(2E/B) alpha."""
    _check_time(t)
    if ch.b == 0.0 or t == 0.0:
        return 0.0
    e = _exponent(ch, t)
    return -2.0 * (e / ch.b) * math.exp(-e)


def kappa_to_q(kappa: float) -> float:
    """Map a Majorana-mode counting parameter kappa >= 1/2 to Q = 2 kappa - 1."""
    if not (math.isfinite(kappa) and kappa >= 0.5):
        raise DomainError(f"kappa must be finite and >= 1/2, got {kappa}")
    return 2.0 * kappa - 1.0


def _reduced_time(env: OhmicEnvironment, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (ts, u = (t gamma0)^2/4) over a validated time grid.
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise DomainError("time grid must be one-dimensional")
    if ts.size and not float(ts.min()) >= 0.0:  # a NaN minimum too
        raise DomainError(f"time grid must be nonnegative, got a minimum of {ts.min()}")
    with np.errstate(over="ignore"):
        x = ts * env.gamma0
        u = 0.25 * x * x
    if not np.isfinite(u).all():
        raise ConvergenceError("kernel argument (t gamma0)^2/4 leaves the double range")
    return ts, u


def i_q_profile(env: OhmicEnvironment, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (I_Q(t), dI_Q/dt) over a time grid; the same branches as
    the scalar functions, agreeing with them to series tolerance.

    Raises ConvergenceError, before summing any series, when
    u = (t gamma0)^2/4 is not finite somewhere on the grid.
    """
    ga1 = gamma(0.5 * (env.q + 1.0))
    c_i = 2.0 * _cutoff_power(env, env.q - 1.0) * ga1
    c_d = 2.0 * ga1 * _cutoff_power(env, env.q + 1.0)
    ts, u = _reduced_time(env, ts)
    a = 0.5 * (env.q - 1.0)
    return c_i * _kernel_array(a, u), c_d * ts * _hyp1f1_array(a + 1.0, 1.5, -u)


def _exponent_values(ch: DephasingChannel, ts: np.ndarray) -> np.ndarray:
    # E(t) = 2 B^2 |beta| I_Q over a time grid, without dE/dt.
    s_i, _ = _exponent_scales(ch)
    _, u = _reduced_time(ch.env, ts)
    return s_i * _kernel_array(0.5 * (ch.env.q - 1.0), u)


def alpha_profile(ch: DephasingChannel, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (alpha(t), d alpha/dt) over a time grid."""
    s_i, s_d = _exponent_scales(ch)
    ts, u = _reduced_time(ch.env, ts)
    a = 0.5 * (ch.env.q - 1.0)
    evals = s_i * _kernel_array(a, u)
    devals = s_d * ts * _hyp1f1_array(a + 1.0, 1.5, -u)
    with np.errstate(under="ignore"):
        avals = np.exp(-evals)
    return avals, -devals * avals
