"""Quantum Fisher information of the dephased pair for field estimation.

The field strength B enters the evolved state only through the coherence
factor alpha(t; B), so the QFI for estimating B admits a closed form on the
whole Bell-like family, theta in [0, pi]:

    F(t) = 128 B^2 beta^2 I_Q(t)^2 alpha^4 / (1 - alpha^4) = 32 (E/B)^2 alpha^4 / (1 - alpha^4),

with E = 2 B^2 |beta| I_Q = -ln alpha.  It holds at every theta because the
evolved state's spectrum, (1 +/- alpha^2)^2/4 and (1 - alpha^4)/4 twice,
does not depend on theta, and its eigenvectors do not depend on B.  The
general spectral formula

    F = 2 sum_{i,j} |<i| d_B rho |j>|^2 / (lambda_i + lambda_j)

is implemented independently and the two routes are compared sample by
sample; the comparison is the point, so neither route delegates to the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dephasing, states
from .dephasing import TimeWindow
from .errors import DomainError

__all__ = [
    "QfiSeries",
    "qfi_general",
    "drho_db",
    "qfi_closed",
    "qfi_series",
]

_REL_GAP_FLOOR = 1e-30

# Eigenpairs with lambda_i + lambda_j at or below this are left out of the QFI.
_KERNEL_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class QfiSeries:
    """Both QFI routes and their relative gap over a time grid, one array each."""

    t: np.ndarray
    f_general: np.ndarray
    f_closed: np.ndarray
    rel_gap: np.ndarray


def qfi_general(rho, drho: np.ndarray) -> float:
    """Spectral-decomposition QFI for a state and its parameter derivative.

    ``rho`` is any object exposing a density ``.matrix``; ``drho`` must be
    Hermitian and traceless (it is d rho / d parameter).  Both may be stacks
    of matrices of one shape ``(..., d, d)``; the result then has shape
    ``(...)``, and a single pair gives a float.  Eigenpairs with
    lambda_i + lambda_j <= 1e-12 lie in the kernel of the state and are
    excluded from the sum.  The sum runs one diagonal block of ``rho`` and
    ``drho`` at a time (``states._diagonal_blocks``), since terms between
    blocks vanish: a block of size 1 or 2 is decomposed and contracted in
    closed form, a larger one by the batched ``eigh`` and one stacked
    product, so a state whose pattern is one full block is summed as a
    whole.  The arithmetic follows the inputs' dtypes: a real state and
    derivative (the Bell-like family's) are summed in float64, and a complex
    one of either makes the rest complex.
    """
    m = np.asarray(rho.matrix)
    d = np.asarray(drho)
    if d.shape != m.shape:
        raise DomainError(f"derivative shape {d.shape} does not match state {m.shape}")
    herm = np.abs(d - d.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = ~(herm <= 1e-12)
    if bad.any():
        raise DomainError(
            f"drho is not Hermitian (defect {float(herm[bad].flat[0]):.3e})"
            + states._member(bad)
        )
    tr = np.abs(np.trace(d, axis1=-2, axis2=-1))
    bad = ~(tr <= 1e-12)
    if bad.any():
        raise DomainError(
            f"drho is not traceless (|trace| = {float(tr[bad].flat[0]):.3e})"
            + states._member(bad)
        )
    f = 0.0
    for idx in states._diagonal_blocks(m, d):
        if len(idx) == 1:
            i = idx[0]
            lam, g = m[..., i, i].real, d[..., i, i].real
            f = f + _terms(g * g, 2.0 * lam)
        elif len(idx) == 2:
            i, j = idx
            eig = states._qubit_eigh(m[..., i, i].real, m[..., j, j].real, m[..., i, j])
            f = f + _qubit_terms(eig, d[..., i, i].real, d[..., j, j].real, d[..., i, j])
        else:
            lam, vec = states._eigh(states._block(m, idx))
            a = vec.conj().swapaxes(-1, -2) @ states._block(d, idx) @ vec
            s = lam[..., :, None] + lam[..., None, :]
            f = f + _terms(np.abs(a) ** 2, s).sum(axis=(-2, -1))
    return float(f) if f.ndim == 0 else f


def _terms(a2, s):
    # The QFI terms 2 |<i|drho|j>|^2 / (lambda_i + lambda_j) for squared
    # moduli a2 and eigenvalue sums s: 0 where s is in the kernel.
    keep = s > _KERNEL_TOL
    return np.where(keep, 2.0 * a2 / np.where(keep, s, 1.0), 0.0)


def _qubit_terms(eig, p, s, q):
    # The QFI terms of a 2x2 block with derivative [[p, q], [conj(q), s]],
    # written out in the state's closed-form eigenpairs eig
    # (states._qubit_eigh).  With w = conj(phase) q, the derivative in the
    # eigenbasis has the diagonal (p + s)/2 -/+ shift, shift =
    # (p - s)/2 cos 2phi + Re w sin 2phi, and the coupling
    # Re w cos 2phi - (p - s)/2 sin 2phi - i Im w.
    lam, cos2, sin2, phase = eig
    lo, hi = lam[..., 0], lam[..., 1]
    w = np.conj(phase) * q
    mid = 0.5 * (p + s)
    half = 0.5 * (p - s)
    shift = half * cos2 + w.real * sin2
    cross = w.real * cos2 - half * sin2
    cross2 = cross * cross + w.imag * w.imag if np.iscomplexobj(w) else cross * cross
    lo_a, hi_a = mid - shift, mid + shift
    return (_terms(lo_a * lo_a, 2.0 * lo) + _terms(hi_a * hi_a, 2.0 * hi)
            + 2.0 * _terms(cross2, lo + hi))


def _drho_from(theta: float, a, dadb) -> np.ndarray:
    # Entrywise derivative of the evolved X state with respect to B, written
    # as (d rho / d alpha) * (d alpha / dB); a real (float64) stack for arrays
    # a and dadb.
    a = np.asarray(a, dtype=np.float64)
    a2 = a * a
    a3 = a2 * a
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    d = np.zeros(np.broadcast_shapes(a.shape, np.shape(dadb)) + (4, 4))
    d[..., 0, 0] = (a3 + cos_t * a) * dadb
    d[..., 1, 1] = -a3 * dadb
    d[..., 2, 2] = -a3 * dadb
    d[..., 3, 3] = (a3 - cos_t * a) * dadb
    d[..., 0, 3] = a * sin_t * dadb
    d[..., 3, 0] = d[..., 0, 3]
    return d


def drho_db(theta: float, ch: dephasing.DephasingChannel, t: float) -> np.ndarray:
    """d rho / dB of the evolved Bell-like state at time ``t``; real
    (float64), symmetric and traceless by construction."""
    states._check_theta(theta)
    a = dephasing.alpha(ch, t)
    dadb = dephasing.dalpha_db(ch, t)
    return _drho_from(theta, a, dadb)


def _closed_from(eb, a):
    # 32 (E/B)^2 alpha^4 / (1 - alpha^4), elementwise over arrays eb = E/B
    # and a.  It is 0 where E/B vanishes (B = 0 or t = 0) and where alpha is
    # indistinguishable from 1 in double precision: the exact limit at t -> 0
    # is 0 and F there is below representable noise.
    eb = np.asarray(eb, dtype=np.float64)
    a4 = np.asarray(a, dtype=np.float64) ** 4
    om = 1.0 - a4
    zero = (eb == 0.0) | (om == 0.0)
    with np.errstate(over="ignore"):
        f = 32.0 * eb * eb * a4 / np.where(zero, 1.0, om)
    return np.where(zero, 0.0, f)


def qfi_closed(ch: dephasing.DephasingChannel, t: float) -> float:
    """Closed-form QFI of the Bell-like family, the same at every theta in
    [0, pi]: F = 128 B^2 beta^2 I_Q^2 alpha^4 / (1 - alpha^4)."""
    dephasing._check_time(t)
    if t == 0.0 or ch.b == 0.0:
        return 0.0
    e = dephasing._exponent(ch, t)
    return float(_closed_from(e / ch.b, math.exp(-e)))


def qfi_series(ch: dephasing.DephasingChannel, theta: float, w: TimeWindow) -> QfiSeries:
    """Both QFI routes over a time window: the general route at ``theta``
    against the closed form, which holds at every theta."""
    states._check_theta(theta)
    ts = w.times()
    evals = dephasing._exponent_values(ch, ts)
    with np.errstate(under="ignore"):
        avals = np.exp(-evals)
    eb = evals / ch.b if ch.b > 0.0 else np.zeros_like(evals)
    dadb_vals = -2.0 * eb * avals  # d alpha/dB = -(2E/B) alpha
    f_general = np.empty_like(avals)
    for block in states._blocks(len(ts), states._MEASURE_BLOCK):
        rho = states.evolved_x_state(theta, avals[block])
        f_general[block] = qfi_general(rho, _drho_from(theta, avals[block], dadb_vals[block]))
    f_closed = _closed_from(eb, avals)
    gaps = np.abs(f_general - f_closed) / np.maximum(f_general, _REL_GAP_FLOOR)
    return QfiSeries(ts, f_general, f_closed, gaps)
