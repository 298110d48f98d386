"""Dephasing kernel of a topological qubit in an Ohmic-like environment.

The environment is characterized by a spectral exponent Q >= 0 and a cutoff
rate gamma0; coupling to an external field of strength B produces a pure
dephasing channel whose single-qubit coherence factor is

    alpha(t) = exp(-2 B^2 |beta| I_Q(t)),

with beta a negative Q-dependent coupling constant and I_Q(t) the integrated
noise kernel.  Everything here reduces to the confluent hypergeometric
machinery in :mod:`topoqubit.specfun`.

The Q = 1 kernel is an analytic limit of the general expression and is
evaluated through a dedicated 2F2 branch; the switch happens inside a band
|Q - 1| < 1e-6.  Between 1e-6 and ~1e-3 the general branch loses roughly
three digits to the Gamma((Q-1)/2) pole cancellation, which is still far
inside every tolerance used downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import (
    DEFAULT_OPTIONS,
    EvalOptions,
    _dhyp2f2_array,
    _hyp1f1_array,
    _hyp2f2_array,
    dhyp2f2_11_32_2_dz,
    gamma,
    hyp1f1,
    hyp2f2_11_32_2,
)

__all__ = [
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

# Width of the band around Q = 1 handled by the dedicated 2F2 branch.
_Q_BRANCH_TOL = 1e-6


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


def _is_unit_branch(q: float) -> bool:
    return abs(q - 1.0) < _Q_BRANCH_TOL


def i_q(env: OhmicEnvironment, t: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Integrated noise kernel I_Q(t); nonnegative, I_Q(0) = 0.

    General branch:
        I_Q = 2 gamma0^(Q-1) Gamma((Q-1)/2) [1 - M((Q-1)/2; 1/2; -t^2 gamma0^2/4)]
    Q = 1 branch (analytic limit of the above):
        I_1 = t^2 gamma0^2 2F2({1,1}; {3/2,2}; -t^2 gamma0^2/4)
    """
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    x = t * env.gamma0
    z = -0.25 * x * x
    if _is_unit_branch(env.q):
        return x * x * hyp2f2_11_32_2(z, opts)
    a = 0.5 * (env.q - 1.0)
    pref = 2.0 * _cutoff_power(env, env.q - 1.0) * gamma(a)
    return pref * (1.0 - hyp1f1(a, 0.5, z, opts))


def di_q_dt(env: OhmicEnvironment, t: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Time derivative of the integrated kernel, dI_Q/dt.

    General branch (one contiguous relation, smooth through Q -> 1):
        dI_Q/dt = 2 Gamma((Q+1)/2) gamma0^(Q+1) t M((Q+1)/2; 3/2; -t^2 gamma0^2/4)
    Q = 1 branch, by the product rule on I_1 = t^2 gamma0^2 2F2(z(t)):
        dI_1/dt = 2 t gamma0^2 2F2(z) + t^2 gamma0^2 (d2F2/dz) dz/dt
    """
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    g0 = env.gamma0
    x = t * g0
    z = -0.25 * x * x
    if _is_unit_branch(env.q):
        gg = g0 * g0
        f = hyp2f2_11_32_2(z, opts)
        fp = dhyp2f2_11_32_2_dz(z, opts)
        return 2.0 * t * gg * f + (t * t * gg) * fp * (-0.5 * t * gg)
    a1 = 0.5 * (env.q + 1.0)
    return 2.0 * gamma(a1) * _cutoff_power(env, env.q + 1.0) * t * hyp1f1(a1, 1.5, z, opts)


def alpha(ch: DephasingChannel, t: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Single-qubit coherence factor alpha(t) = exp(-2 B^2 |beta| I_Q(t))."""
    exponent = 2.0 * ch.b * ch.b * ch.beta_abs * i_q(ch.env, t, opts)
    return math.exp(-exponent)


def dalpha_dt(ch: DephasingChannel, t: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """d alpha / dt = -2 B^2 |beta| (dI_Q/dt) alpha(t)."""
    if ch.b == 0.0 or t == 0.0:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        return 0.0
    c = 2.0 * ch.b * ch.b * ch.beta_abs
    return -c * di_q_dt(ch.env, t, opts) * math.exp(-c * i_q(ch.env, t, opts))


def dalpha_db(ch: DephasingChannel, t: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Field sensitivity d alpha / dB = -4 B |beta| I_Q(t) alpha(t)."""
    if ch.b == 0.0 or t == 0.0:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        return 0.0
    iv = i_q(ch.env, t, opts)
    c = 2.0 * ch.b * ch.b * ch.beta_abs
    return -4.0 * ch.b * ch.beta_abs * iv * math.exp(-c * iv)


def kappa_to_q(kappa: float) -> float:
    """Map a Majorana-mode counting parameter kappa >= 1/2 to Q = 2 kappa - 1."""
    if not (math.isfinite(kappa) and kappa >= 0.5):
        raise DomainError(f"kappa must be finite and >= 1/2, got {kappa}")
    return 2.0 * kappa - 1.0


def i_q_profile(
    env: OhmicEnvironment,
    ts: np.ndarray,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (I_Q(t), dI_Q/dt) over a time grid; same branches as the
    scalar functions, agreeing with them to series tolerance.

    Raises ConvergenceError, before summing any series, when
    u = (t gamma0)^2/4 is not finite somewhere on the grid.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise DomainError("time grid must be one-dimensional")
    if ts.size and float(ts.min()) < 0.0:
        raise DomainError("time grid must be nonnegative")
    g0 = env.gamma0
    with np.errstate(over="ignore"):
        x = ts * g0
        z = -0.25 * x * x
    if not np.isfinite(z).all():
        raise ConvergenceError("kernel argument (t gamma0)^2/4 leaves the double range")
    if _is_unit_branch(env.q):
        gg = g0 * g0
        f = _hyp2f2_array(z, opts)
        fp = _dhyp2f2_array(z, opts)
        ivals = ts * ts * gg * f
        divals = 2.0 * ts * gg * f + (ts * ts * gg) * fp * (-0.5 * ts * gg)
        return ivals, divals
    a = 0.5 * (env.q - 1.0)
    pref = 2.0 * _cutoff_power(env, env.q - 1.0) * gamma(a)
    m0 = _hyp1f1_array(a, 0.5, z, opts)
    m1 = _hyp1f1_array(a + 1.0, 1.5, z, opts)
    ivals = pref * (1.0 - m0)
    divals = 2.0 * gamma(a + 1.0) * _cutoff_power(env, env.q + 1.0) * ts * m1
    return ivals, divals


def alpha_profile(
    ch: DephasingChannel,
    ts: np.ndarray,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (alpha(t), d alpha/dt) over a time grid."""
    ivals, divals = i_q_profile(ch.env, ts, opts)
    c = 2.0 * ch.b * ch.b * ch.beta_abs
    with np.errstate(under="ignore"):
        avals = np.exp(-c * ivals)
    davals = -c * divals * avals
    return avals, davals
