"""Non-Markovianity measures for the dephasing channel.

Three witnesses built on one primitive, the positive variation of a scalar
signal over a time window:

* BLP: information backflow, positive variation of the trace distance between
  the |0>, |1> antipodal pair, which for pure dephasing equals alpha(t)^2.
* LPP: volume backflow, positive variation of |det M(t)| for the generically
  assembled Bloch affine map.
* CB: coherence backflow of the evolved Bell-like family at angle theta.

For this channel family every witness is a strictly increasing function of
alpha, so revival intervals coincide across measures.  They are located once
per channel and window (on d(alpha^2)/dt) and cached; each witness only
telescopes its own function of alpha over them.  All measures vanish
identically for spectral exponents Q <= 2, where the search returns without
building a profile, and a revival requires Q > 2 plus a field weak enough
that the coherence floor stays representable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dephasing, states
from .errors import DomainError, HorizonWarning
from .specfun import DEFAULT_OPTIONS, EvalOptions

__all__ = [
    "TimeWindow",
    "NonMarkovReport",
    "positive_variation",
    "blp",
    "lpp",
    "cb",
    "blp_pair_scan",
    "critical_q_scan",
    "nm_report",
]

# A measure below this threshold counts as Markovian in scans.
_FIRING_THRESHOLD = 1e-10

_TRUNCATED = "derivative still positive at t_max; a revival is truncated by the window"


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Uniform time grid [0, t_max] used for sign scanning, with bisection
    refinement of derivative sign changes down to ``refine_tol``."""

    t_max: float
    n_grid: int = 4096
    refine_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise DomainError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.n_grid < 16:
            raise DomainError(f"n_grid must be >= 16, got {self.n_grid}")
        if not (self.refine_tol > 0.0):
            raise DomainError(f"refine_tol must be > 0, got {self.refine_tol}")

    @classmethod
    def for_cutoff(cls, gamma0: float, n_grid: int = 4096) -> "TimeWindow":
        """Window covering t gamma0 in [0, 100], where the kernel has settled."""
        if not (gamma0 > 0.0):
            raise DomainError(f"gamma0 must be > 0, got {gamma0}")
        return cls(t_max=100.0 / gamma0, n_grid=n_grid)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_grid)


@dataclass(frozen=True, slots=True)
class NonMarkovReport:
    """The three witnesses plus the refined revival intervals."""

    n_blp: float
    n_lpp: float
    n_cb: float
    revival_intervals: tuple[tuple[float, float], ...]


def _bisect_sign_change(g, lo: float, hi: float, sign_lo: float, tol: float) -> float:
    # Narrow a bracket over which g changes sign; only the left-end sign is
    # trusted from the caller, midpoints are re-evaluated exactly.
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (sign_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rising_intervals(
    ts: np.ndarray,
    d_grid: np.ndarray,
    dfdt,
    refine_tol: float,
) -> tuple[tuple[tuple[float, float], ...], bool]:
    """Intervals on which a signal increases, from grid samples of its derivative.

    Sign changes of ``d_grid`` are refined by bisection on the scalar ``dfdt``.
    Exact zeros on the grid carry no sign and are skipped when locating
    changes.  The flag is True when the derivative is still positive at the
    window end, i.e. the last interval is cut off by the window.
    """
    nz = np.flatnonzero(d_grid)
    signs = np.sign(d_grid[nz])
    intervals: list[tuple[float, float]] = []
    truncated = False
    if nz.size:
        cur_start = float(ts[0]) if signs[0] > 0 else None
        # Positions i in nz where the sign differs from that at i + 1.
        for i in np.flatnonzero(signs[1:] != signs[:-1]).tolist():
            root = _bisect_sign_change(
                dfdt, float(ts[nz[i]]), float(ts[nz[i + 1]]), float(signs[i]), refine_tol
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


def positive_variation(f, dfdt, w: TimeWindow) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Positive variation of a scalar signal f over the window.

    ``f`` and ``dfdt`` are callables of time; ``dfdt`` may accept an ndarray
    (used for the grid scan) or be scalar-only, in which case the grid is
    evaluated pointwise.  The variation telescopes to the sum of
    f(end) - f(start) over the intervals of positive derivative.  Returns
    (variation, intervals of increase).
    """
    ts = w.times()
    try:
        d_grid = np.asarray(dfdt(ts), dtype=np.float64)
        if d_grid.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        d_grid = np.array([float(dfdt(float(t))) for t in ts])
    intervals, truncated = _rising_intervals(ts, d_grid, dfdt, w.refine_tol)
    if truncated:
        warnings.warn(_TRUNCATED, HorizonWarning, stacklevel=2)
    value = 0.0
    for a, b in intervals:
        value += f(b) - f(a)
    return value, intervals


@lru_cache(maxsize=128)
def _cached_profile(
    q: float,
    gamma0: float,
    b: float,
    t_max: float,
    n_grid: int,
    rel_tol: float,
    max_terms: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    env = dephasing.OhmicEnvironment(q, gamma0)
    ch = dephasing.DephasingChannel(env, b)
    ts = np.linspace(0.0, t_max, n_grid)
    avals, davals = dephasing.alpha_profile(ch, ts, EvalOptions(rel_tol, max_terms))
    for arr in (ts, avals, davals):
        arr.setflags(write=False)
    return ts, avals, davals


def _profile(
    ch: dephasing.DephasingChannel, w: TimeWindow, opts: EvalOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _cached_profile(
        ch.env.q, ch.env.gamma0, ch.b, w.t_max, w.n_grid, opts.rel_tol, opts.max_terms
    )


def _alpha_sq_slope(ch: dephasing.DephasingChannel):
    """Scalar d(alpha^2)/dt = 2 alpha d(alpha)/dt with one I_Q evaluation per
    point, the same products as ``2 alpha(t) dalpha_dt(t)``."""
    c = 2.0 * ch.b * ch.b * ch.beta_abs

    def slope(t: float) -> float:
        a = math.exp(-c * dephasing.i_q(ch.env, t))
        return 2.0 * a * (-c * dephasing.di_q_dt(ch.env, t) * a)

    return slope


@lru_cache(maxsize=128)
def _revival(
    ch: dephasing.DephasingChannel, w: TimeWindow
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...], bool]:
    """Revival intervals of alpha over the window, alpha at their ends, and
    whether the last interval is cut off by the window.

    Sign changes are located on d(alpha^2)/dt, sampled on the cached profile
    and refined with the scalar kernel.  Every witness is a strictly
    increasing function of alpha, so all three share this one search.

    For Q <= 2 no profile is built: dI/dt is proportional to
    t M((Q+1)/2; 3/2; -u) = t e^-u M(1 - Q/2; 3/2; u) (Kummer's
    transformation), a series of nonnegative terms led by 1, so alpha
    decreases monotonically and never revives.
    """
    if ch.env.q <= 2.0:
        return (), (), False
    ts, avals, davals = _profile(ch, w, DEFAULT_OPTIONS)
    intervals, truncated = _rising_intervals(
        ts, 2.0 * avals * davals, _alpha_sq_slope(ch), w.refine_tol
    )
    ends = tuple((dephasing.alpha(ch, a), dephasing.alpha(ch, b)) for a, b in intervals)
    return intervals, ends, truncated


def _backflow(ch: dephasing.DephasingChannel, w: TimeWindow, g) -> float:
    # Positive variation of g(alpha(t)) for a strictly increasing g.
    _, ends, truncated = _revival(ch, w)
    if truncated:
        warnings.warn(_TRUNCATED, HorizonWarning, stacklevel=3)
    value = 0.0
    for a_start, a_end in ends:
        value += g(a_end) - g(a_start)
    return value


def blp(ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Information-backflow measure: positive variation of the trace distance
    of the antipodal pole pair, which dephasing sends to alpha(t)^2."""
    return _backflow(ch, w, lambda a: a**2)


def lpp(ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Volume-backflow measure: positive variation of |det M(t)| with M the
    generically assembled Bloch affine map."""
    return _backflow(ch, w, lambda a: abs(states.bloch_affine_map(a).det))


def cb(theta: float, ch: dephasing.DephasingChannel, w: TimeWindow) -> float:
    """Coherence-backflow measure for the evolved Bell-like family at angle
    ``theta``: positive variation of the l1 coherence sin(theta) alpha(t)^2."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    from . import correlations

    return _backflow(
        ch, w, lambda a: correlations.coherence_l1(states.evolved_x_state(theta, a))
    )


def blp_pair_scan(
    ch: dephasing.DephasingChannel, w: TimeWindow, n_angles: int = 9
) -> tuple[tuple[float, float], float]:
    """Scan antipodal Bloch pairs for the one maximizing information backflow.

    Each pair (n, -n) is evolved through the generic single-qubit channel and
    the discrete positive variation of their trace distance accumulated on the
    grid.  Returns ((theta, phi) of the best axis, its variation).

    Dephasing sends the pair at polar angle theta to the trace distance
    sqrt(alpha^4 cos^2 theta + alpha^2 sin^2 theta): alpha^2 for the polar
    pair, alpha for an equatorial one.  Over a revival from alpha_0 to
    alpha_1 the polar pair gains more only if alpha_0 + alpha_1 > 1, so the
    winning axis depends on where alpha revives: at Q = 3, gamma0 = 1.6,
    B = 1 the equatorial pair's variation is about 19 times the polar one.
    """
    if n_angles < 2:
        raise DomainError(f"n_angles must be >= 2, got {n_angles}")
    ts, avals, _ = _profile(ch, w, DEFAULT_OPTIONS)
    # Fully dephased points (alpha = 0) send both members to I/2.
    live = avals != 0.0
    a_live = avals[live]
    thetas = np.linspace(0.0, 0.5 * math.pi, n_angles)
    phis = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    best_val = -1.0
    best_axis = (0.0, 0.0)
    for th in thetas:
        for ph in phis:
            nx = math.sin(th) * math.cos(ph)
            ny = math.sin(th) * math.sin(ph)
            nz = math.cos(th)
            nvec = nx * states.PAULIS[0] + ny * states.PAULIS[1] + nz * states.PAULIS[2]
            r_plus = states.DensityMatrix2(0.5 * (np.eye(2) + nvec))
            r_minus = states.DensityMatrix2(0.5 * (np.eye(2) - nvec))
            # Both members along the whole grid at once, through the
            # evolve_single formula and its validation.
            plus = states._dephase(r_plus.matrix, a_live)
            minus = states._dephase(r_minus.matrix, a_live)
            states._check_density(plus)
            states._check_density(minus)
            dist = np.zeros(ts.shape)
            dist[live] = 0.5 * np.abs(np.linalg.eigvalsh(plus - minus)).sum(axis=-1)
            val = float(np.clip(np.diff(dist), 0.0, None).sum())
            if val > best_val:
                best_val = val
                best_axis = (float(th), float(ph))
    return best_axis, best_val


def critical_q_scan(
    gamma0: float,
    q_range: tuple[float, float] = (0.0, 12.0),
    w: TimeWindow | None = None,
    b: float = 1.0,
) -> float | None:
    """Smallest spectral exponent whose BLP measure fires (> 1e-10), located
    by bisection to 1e-3 resolution.

    Returns None when no exponent in ``q_range`` fires, e.g. for b = 0 or a
    field so strong that every revival underflows.
    """
    q_lo, q_hi = q_range
    if not (0.0 <= q_lo < q_hi):
        raise DomainError(f"q_range must satisfy 0 <= lo < hi, got {q_range}")
    if w is None:
        w = TimeWindow.for_cutoff(gamma0)

    def fires(q: float) -> bool:
        ch = dephasing.DephasingChannel(dephasing.OhmicEnvironment(q, gamma0), b)
        return blp(ch, w) > _FIRING_THRESHOLD

    if not fires(q_hi):
        return None
    if fires(q_lo):
        return q_lo
    lo, hi = q_lo, q_hi
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return hi


def nm_report(
    ch: dephasing.DephasingChannel, w: TimeWindow, theta: float = 0.5 * math.pi
) -> NonMarkovReport:
    """Evaluate all three witnesses plus revival intervals from one search."""
    intervals, _, _ = _revival(ch, w)
    return NonMarkovReport(
        n_blp=blp(ch, w),
        n_lpp=lpp(ch, w),
        n_cb=cb(theta, ch, w),
        revival_intervals=intervals,
    )
