"""Quantum-correlation measures for two-qubit X states.

Each measure comes in a general X-state route and, where the evolved
Bell-like family admits one, a closed-form route; the two are compared
against each other in the test suite rather than trusted individually.

Measures: concurrence (entanglement), quantum discord, local quantum
uncertainty (LQU), trace-norm discord (TND), and the l1 coherence.
Logarithms are base 2 throughout, so discord-like quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import XState4, _check_theta

__all__ = [
    "CorrelationReport",
    "concurrence_x",
    "concurrence_evolved",
    "discord_x",
    "discord_closed",
    "lqu_x",
    "lqu_closed",
    "tnd_x",
    "coherence_l1",
    "report",
]

_LN2 = math.log(2.0)

@dataclass(frozen=True, slots=True)
class CorrelationReport:
    """All correlation measures of one state (or one stack), evaluated together."""

    concurrence: float
    discord: float
    lqu: float
    tnd: float
    coherence_l1: float


def _out(x: np.ndarray):
    # A single state's value as a Python float; a stack's as an array.
    return float(x) if np.ndim(x) == 0 else x


def _plog2(x: np.ndarray) -> np.ndarray:
    # x log2 x with the continuous extension 0 log 0 = 0.
    pos = x > 0.0
    return np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)


def _h2(x: np.ndarray) -> np.ndarray:
    # Binary entropy; arguments can graze 0 or 1 by rounding noise.
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    return np.where(inside, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


def concurrence_x(s: XState4) -> float:
    """Concurrence of an X state: 2 max(0, |rho14| - sqrt(rho22 rho33),
    |rho23| - sqrt(rho11 rho44))."""
    l1 = np.abs(s.rho14) - np.sqrt(np.maximum(s.rho22 * s.rho33, 0.0))
    l2 = np.abs(s.rho23) - np.sqrt(np.maximum(s.rho11 * s.rho44, 0.0))
    return _out(2.0 * np.maximum(np.maximum(l1, l2), 0.0))


def concurrence_evolved(theta: float, a: float) -> float:
    """Concurrence of the evolved Bell-like family in closed form:
    2 max(0, (a^2/2) sin(theta) - (1 - a^4)/4)."""
    _check_theta(theta)
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"coherence factor must lie in [0, 1], got {a}")
    a2 = a * a
    return 2.0 * max(0.0, 0.5 * a2 * math.sin(theta) - 0.25 * (1.0 - a2 * a2))


def discord_x(s: XState4) -> float:
    """Quantum discord of an X state.

    Classical correlations are maximized over projective measurements on the
    second qubit; for X states the optimum is attained on the sigma_z or
    sigma_x axis, giving the two-branch minimum evaluated here.
    """
    r11, r22, r33, r44 = s.rho11, s.rho22, s.rho33, s.rho44
    c14 = np.abs(s.rho14)
    c23 = np.abs(s.rho23)

    # Eigenvalues of the X state itself.
    mid1 = np.sqrt((r11 - r44) ** 2 + 4.0 * c14 * c14)
    mid2 = np.sqrt((r22 - r33) ** 2 + 4.0 * c23 * c23)
    sum_lam_log = (
        _plog2(0.5 * ((r11 + r44) + mid1))
        + _plog2(0.5 * ((r11 + r44) - mid1))
        + _plog2(0.5 * ((r22 + r33) + mid2))
        + _plog2(0.5 * ((r22 + r33) - mid2))
    )

    h_b = _h2(r11 + r33)

    d1 = _h2(0.5 * (1.0 + np.sqrt((1.0 - 2.0 * (r33 + r44)) ** 2 + 4.0 * (c14 + c23) ** 2)))
    d2 = -(_plog2(r11) + _plog2(r22) + _plog2(r33) + _plog2(r44)) - h_b

    q1 = h_b + sum_lam_log + d1
    q2 = h_b + sum_lam_log + d2
    return _out(np.minimum(q1, q2))


def discord_closed(a: float) -> float:
    """Discord of the evolved maximally entangled state (theta = pi/2) as an
    explicit function of the coherence factor.

    Every logarithm argument is taken in absolute value; the bracketed
    combinations are real for 0 <= a < 1 and the a -> 1 limit equals 1.
    """
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"coherence factor must lie in [0, 1], got {a}")
    if a == 1.0:
        return 1.0
    a2 = a * a
    a4 = a2 * a2
    log_m4 = math.log(abs(a4 - 1.0))
    log_m2 = math.log(abs(a2 - 1.0))
    q1 = (
        log_m4
        - a4 * math.log(abs(1.0 - a2))
        + a2 * math.log(abs(1.0 - a4))
        + a2 * (a2 - 2.0) * log_m2
    ) / (2.0 * _LN2)
    q2 = (
        log_m4
        - (a4 + 1.0) * math.log(a4 + 1.0)
        + (a2 - 2.0) * a2 * log_m2
        + (a2 + 2.0) * a2 * math.log(a2 + 1.0)
    ) / (2.0 * _LN2)
    return min(q1, q2)


def _block_sqrt(p: np.ndarray, q: np.ndarray, r: np.ndarray, det: np.ndarray):
    # Diagonal entries and off-diagonal modulus of the square root of the PSD
    # block [[p, z], [z*, q]] with |z| = r and determinant det:
    # sqrt(M) = (M + sqrt(det) I) / sqrt(tr M + 2 sqrt(det)), and 0 for M = 0.
    sd = np.sqrt(det)
    norm = np.sqrt(np.maximum(p + q + 2.0 * sd, 0.0))
    inv = np.where(norm > 0.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 0.0)
    return (p + sd) * inv, (q + sd) * inv, r * inv


def lqu_x(s: XState4) -> float:
    """Local quantum uncertainty of an X state.

    1 - max eigenvalue of the 3x3 matrix W with
    W_ij = Tr[sqrt(rho) (sigma_i x I) sqrt(rho) (sigma_j x I)]
    (Girolami, Tufarelli & Adesso, PRL 110, 240402 (2013)).  sqrt(rho) is X
    form, built blockwise from the state's block determinants: diagonal
    a, b, e, f and anti-diagonal moduli c (block 14) and d (block 23).  W is
    then block diagonal with eigenvalues 2(ae + bf) +- 4cd and
    a^2 + b^2 + e^2 + f^2 - 2(c^2 + d^2); the coherence phases drop out, as
    LQU is invariant under local phase rotations.
    """
    a, f, c = _block_sqrt(s.rho11, s.rho44, np.abs(s.rho14), s.det14)
    b, e, d = _block_sqrt(s.rho22, s.rho33, np.abs(s.rho23), s.det23)
    w_xy = 2.0 * (a * e + b * f) + 4.0 * c * d
    w_zz = a * a + b * b + e * e + f * f - 2.0 * (c * c + d * d)
    return _out(1.0 - np.maximum(w_xy, w_zz))


def lqu_closed(theta: float, a: float) -> float:
    """LQU of the evolved Bell-like family in closed form.

    Piecewise: 1 - sqrt(1 - a^4) when
    2 + a^4 cos(2 theta) <= a^4 + 2 sqrt(1 - a^4), else a^4 sin^2(theta).
    """
    _check_theta(theta)
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"coherence factor must lie in [0, 1], got {a}")
    a4 = a**4
    root = math.sqrt(max(1.0 - a4, 0.0))
    if 2.0 + a4 * math.cos(2.0 * theta) <= a4 + 2.0 * root:
        return 1.0 - root
    return a4 * math.sin(theta) ** 2


def tnd_x(s: XState4) -> float:
    """Trace-norm (geometric) discord of an X state.

    With xi_1,2 = 2(|rho23| +- |rho14|), xi_3 = 1 - 2(rho22 + rho33) and
    x = 2(rho11 + rho22) - 1, let ximax = max(xi_3^2, xi_2^2 + x^2) and
    ximin = min(xi_1^2, xi_3^2).  The ratio

        4 TND^2 = (xi_1^2 ximax - xi_2^2 ximin) / (xi_1^2 - xi_2^2 + ximax - ximin)

    is evaluated as the weighted mean (xi_1^2 A + ximin B) / (A + B) with
    weights A = ximax - ximin >= 0 and B = xi_1^2 - xi_2^2 = 16 |rho14| |rho23|
    >= 0, which is the same algebra without a cancelling difference.  Where
    A + B = 0 the two weighted values coincide and TND = |xi_1| / 2.
    """
    c14 = np.abs(s.rho14)
    c23 = np.abs(s.rho23)
    xi1 = 2.0 * (c23 + c14)
    xi1sq = xi1 * xi1
    xi2sq = (2.0 * (c23 - c14)) ** 2
    xi3sq = (1.0 - 2.0 * (s.rho22 + s.rho33)) ** 2
    x = 2.0 * (s.rho11 + s.rho22) - 1.0
    ximax = np.maximum(xi3sq, xi2sq + x * x)
    ximin = np.minimum(xi1sq, xi3sq)
    wa = ximax - ximin
    wb = 16.0 * c14 * c23
    den = wa + wb
    pos = den > 0.0
    safe = np.where(pos, den, 1.0)
    mean = xi1sq * (wa / safe) + ximin * (wb / safe)
    return _out(0.5 * np.where(pos, np.sqrt(mean), xi1))


def coherence_l1(rho) -> float:
    """l1 norm of coherence: sum of |off-diagonal entries| of ``rho.matrix``,
    per matrix of a ``(..., d, d)`` stack, real or complex."""
    absm = np.abs(np.asarray(rho.matrix))
    return _out(absm.sum(axis=(-2, -1)) - np.trace(absm, axis1=-2, axis2=-1))


def report(s: XState4) -> CorrelationReport:
    """Evaluate every measure on an X state (or stack) through the general
    routes."""
    return CorrelationReport(
        concurrence=concurrence_x(s),
        discord=discord_x(s),
        lqu=lqu_x(s),
        tnd=tnd_x(s),
        coherence_l1=coherence_l1(s),
    )
