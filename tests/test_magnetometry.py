"""Fisher information for field estimation: spectral route vs closed form."""

from __future__ import annotations

import math

import numpy as np
import pytest

from topoqubit import (
    DephasingChannel,
    DomainError,
    OhmicEnvironment,
    TimeWindow,
    alpha,
    dalpha_db,
    drho_db,
    evolved_x_state,
    qfi_closed,
    qfi_general,
    qfi_series,
)
from conftest import richardson_derivative
from test_dtype import QFI_RTOL

HALF_PI = math.pi / 2.0


def chan(q: float, g0: float, b: float) -> DephasingChannel:
    return DephasingChannel(OhmicEnvironment(q, g0), b)


# ---------------------------------------------------------------------------
# spectral route contracts
# ---------------------------------------------------------------------------

def test_qfi_general_zero_derivative():
    rho = evolved_x_state(HALF_PI, 0.7)
    assert qfi_general(rho, np.zeros((4, 4))) == 0.0


def test_qfi_general_rejects_bad_derivative():
    rho = evolved_x_state(HALF_PI, 0.7)
    bad_shape = np.zeros((2, 2))
    with pytest.raises(DomainError):
        qfi_general(rho, bad_shape)
    not_hermitian = np.zeros((4, 4), dtype=complex)
    not_hermitian[0, 1] = 1.0
    with pytest.raises(DomainError):
        qfi_general(rho, not_hermitian)
    not_traceless = np.eye(4, dtype=complex)
    with pytest.raises(DomainError):
        qfi_general(rho, not_traceless)


def test_drho_db_matches_finite_difference():
    for theta, q, g0, b, t in [
        (HALF_PI, 3.0, 1.0, 1.0, 0.7),
        (math.pi / 3.0, 1.0, 1.6, 0.4, 1.2),
        (HALF_PI, 0.5, 0.5, 0.6, 2.0),
    ]:
        got = drho_db(theta, chan(q, g0, b), t)
        assert np.abs(got - got.conj().T).max() == 0.0
        assert abs(np.trace(got)) <= 1e-15
        for idx in [(0, 0), (1, 1), (3, 3), (0, 3)]:
            want = richardson_derivative(
                lambda x: evolved_x_state(theta, alpha(chan(q, g0, x), t)).matrix[idx].real,
                b, h=1e-4)
            assert got[idx].real == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_drho_db_trivial_points():
    assert np.all(drho_db(HALF_PI, chan(3.0, 1.0, 1.0), 0.0) == 0.0)
    assert np.all(drho_db(HALF_PI, chan(3.0, 1.0, 0.0), 2.0) == 0.0)
    with pytest.raises(DomainError):
        drho_db(-0.1, chan(3.0, 1.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_qfi_closed_trivial_points():
    ch = chan(3.0, 1.0, 1.0)
    assert qfi_closed(ch, 0.0) == 0.0
    assert qfi_closed(chan(3.0, 1.0, 0.0), 2.0) == 0.0
    with pytest.raises(DomainError):
        qfi_closed(ch, -1.0)


def test_qfi_closed_equals_derivative_form():
    # F = 8 alpha^2 (d alpha/dB)^2 / (1 - alpha^4) is the same expression
    # written through the field derivative; independent assembly path
    for q, g0, b, t in [(3.0, 1.0, 1.0, 0.5), (1.0, 1.6, 0.5, 1.0), (0.5, 0.5, 0.3, 4.0)]:
        ch = chan(q, g0, b)
        a = alpha(ch, t)
        dadb = dalpha_db(ch, t)
        want = 8.0 * a * a * dadb * dadb / (1.0 - a ** 4)
        assert qfi_closed(ch, t) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------

def test_routes_agree_on_parameter_grid():
    worst = 0.0
    for q in (0.5, 1.0, 2.0, 3.0):
        for g0 in (0.01, 1.6):
            for b in (0.5, 1.0, 2.0):
                ch = chan(q, g0, b)
                for tg in (0.05, 0.5, 2.0, 10.0, 50.0):
                    t = tg / g0
                    fc = qfi_closed(ch, t)
                    rho = evolved_x_state(HALF_PI, alpha(ch, t))
                    fg = qfi_general(rho, drho_db(HALF_PI, ch, t))
                    if fc < 1e-280:
                        assert abs(fg) <= 1e-12
                    else:
                        worst = max(worst, abs(fg - fc) / fc)
    assert worst <= 1e-8


def test_eigenvectors_are_field_independent():
    # the closed form rests on this: the eigenbasis at one field value
    # diagonalizes the state at any other
    q, g0, t = 3.0, 1.0, 0.6
    rho1 = evolved_x_state(HALF_PI, alpha(chan(q, g0, 0.5), t)).matrix
    rho2 = evolved_x_state(HALF_PI, alpha(chan(q, g0, 1.5), t)).matrix
    _, vec = np.linalg.eigh(rho1)
    rotated = vec.conj().T @ rho2 @ vec
    off = rotated - np.diag(np.diag(rotated))
    assert np.abs(off).max() <= 1e-12


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------

def test_series_gap_and_shape():
    ch = chan(3.0, 1.6, 1.0)
    w = TimeWindow(62.5, 512)
    series = qfi_series(ch, HALF_PI, w)
    for col in (series.t, series.f_general, series.f_closed, series.rel_gap):
        assert col.shape == (512,)
    assert np.array_equal(series.t, w.times())
    assert series.f_general[0] == 0.0 and series.f_closed[0] == 0.0
    resolved = series.f_closed > 1e-280
    assert np.all(series.rel_gap[resolved] <= 1e-8)


@pytest.mark.parametrize("q, g0, b", [(3.0, 1.6, 0.3), (1.0, 1.0, 1.0), (2.5, 0.01, 0.002),
                                      (0.5, 1.0, 0.1)])
def test_closed_form_holds_at_every_angle(q, g0, b):
    # the evolved family's spectrum, (1 +/- alpha^2)^2/4 and (1 - alpha^4)/4
    # twice, does not depend on theta, and its eigenvectors do not depend on
    # B: the closed QFI is the general route's at every theta, |00> included
    ch = chan(q, g0, b)
    w = TimeWindow.for_cutoff(g0)
    for theta in (0.0, 0.3, 1.1, HALF_PI, 2.9, math.pi):
        series = qfi_series(ch, theta, w)
        resolved = series.f_closed >= 1e-280
        assert resolved.sum() >= 170, theta
        assert np.all(series.rel_gap[resolved] <= QFI_RTOL), theta


def test_series_zero_field_is_flat():
    series = qfi_series(chan(3.0, 1.6, 0.0), HALF_PI, TimeWindow(10.0, 64))
    assert np.all(series.f_general == 0.0) and np.all(series.f_closed == 0.0)


def test_series_validates_theta():
    with pytest.raises(DomainError):
        qfi_series(chan(3.0, 1.6, 1.0), -0.5, TimeWindow(10.0, 64))


def test_markovian_trapping_plateau():
    # Ohmic coupling at strong field: F rises to a trapped plateau and the
    # tail stays flat because alpha has fully frozen out
    f = qfi_series(chan(1.0, 1.6, 1.0), HALF_PI, TimeWindow(62.5, 512)).f_general
    fmax = f.max()
    tail = f[-64:]
    assert fmax > 1.0
    assert tail.max() - tail.min() < 0.01 * fmax


def test_super_ohmic_revival_lifts_qfi():
    # above the revival threshold the information dips, then partially
    # returns: a local minimum followed by a rise of at least half as much
    g0 = math.sqrt(8.0 * math.pi / 3.0)
    f = qfi_series(chan(3.0, g0, 1.0), HALF_PI, TimeWindow(100.0 / g0, 1024)).f_general
    peak = int(np.argmax(f))
    trough = peak + int(np.argmin(f[peak:]))
    assert trough < len(f) - 1
    recovery = f[trough:].max()
    assert f[peak] > recovery > 1.5 * f[trough] > 0.0
