"""The dtype rule: a state keeps the dtype of its entries.

Real input gives float64 states and real arithmetic downstream; complex input
gives complex128 states, as before.  The complex cast of a real state is the
reference every real result is compared with.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from topoqubit import (
    DensityMatrix2,
    DensityMatrix4,
    DephasingChannel,
    OhmicEnvironment,
    TimeWindow,
    XState4,
    bell_like,
    blp_pair_scan,
    coherence_l1,
    evolve_pair,
    evolve_single,
    evolved_x_state,
    qfi_general,
    trace_distance,
)
from topoqubit import cli, states
from topoqubit.dephasing import _exponent_values
from topoqubit.magnetometry import _drho_from
from conftest import random_density

ALPHAS = np.concatenate([[0.0, 1e-5, 1.0], np.linspace(0.01, 0.999, 40)])

# Agreement asked of the QFI on the Bell-like family against the closed
# form, and against one eigh of the whole matrix: its blocks {1,4}, {2} and
# {3} are solved in closed form, which gives the doubles of the complex cast
# but not LAPACK's: 2.0e-14 relative at most over ALPHAS[1:-1] at 41 angles in
# [0, pi], and rel_gap 1.9e-12 at most in test_closed_form_holds_at_every_angle.
QFI_RTOL = 1e-11
# On a general state eigh moves each eigenvalue by about eps, so a term
# 1/(lambda_i + lambda_j) moves by about eps/(lambda_i + lambda_j) relative:
# the allowed relative gap is this many eps over the smallest such sum.
QFI_EPS_PER_SUM = 64


def real_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim))
    m = g @ g.T
    return m / np.trace(m)


def complex_cast(s: XState4) -> XState4:
    # The same X state with complex128 coherences.
    return XState4(s.rho11, s.rho22, s.rho33, s.rho44,
                   s.rho14.astype(np.complex128), s.rho23.astype(np.complex128),
                   s.det14, s.det23)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls, dim", [(DensityMatrix2, 2), (DensityMatrix4, 4)])
def test_density_keeps_the_dtype_of_its_entries(rng, cls, dim):
    real = real_density(rng, dim)
    assert cls(real).matrix.dtype == np.float64
    assert cls(real.tolist()).matrix.dtype == np.float64
    assert cls(np.diag([1] + [0] * (dim - 1))).matrix.dtype == np.float64   # integers
    # complex stays complex, whatever the values of the imaginary parts
    assert cls(real.astype(np.complex128)).matrix.dtype == np.complex128
    assert cls(random_density(rng, dim)).matrix.dtype == np.complex128


def test_x_state_coherences_keep_their_dtype():
    pops = (0.4, 0.1, 0.1, 0.4)
    s = XState4(*pops, 0.3, 0.05)
    assert s.rho14.dtype == s.rho23.dtype == np.float64
    assert s.matrix.dtype == np.float64
    s = XState4(*pops, 0.3, 0.05j)
    assert s.rho14.dtype == np.float64 and s.rho23.dtype == np.complex128
    assert s.matrix.dtype == np.complex128
    assert s.matrix[1, 2] == 0.05j and s.matrix[2, 1] == -0.05j
    s = XState4(*pops, np.array([0.3, 0.2], dtype=np.complex128))
    assert s.rho14.dtype == np.complex128 and s.matrix.dtype == np.complex128
    for field in ("rho11", "rho22", "rho33", "rho44", "det14", "det23"):
        assert getattr(s, field).dtype == np.float64


def test_channels_follow_the_input_state_dtype(rng):
    q_real = DensityMatrix2(real_density(rng, 2))
    q_cplx = DensityMatrix2(random_density(rng, 2))
    p_real = DensityMatrix4(real_density(rng, 4))
    p_cplx = DensityMatrix4(random_density(rng, 4))
    assert evolve_single(q_real, 0.3).matrix.dtype == np.float64
    assert evolve_single(q_real, ALPHAS).matrix.dtype == np.float64
    assert evolve_single(q_cplx, ALPHAS).matrix.dtype == np.complex128
    assert evolve_pair(p_real, 0.3).matrix.dtype == np.float64
    assert evolve_pair(p_cplx, 0.3).matrix.dtype == np.complex128
    assert bell_like(1.1).matrix.dtype == np.float64
    assert evolve_pair(bell_like(1.1), 0.3).matrix.dtype == np.float64
    assert evolved_x_state(1.1, ALPHAS).matrix.dtype == np.float64


def test_real_channel_images_equal_their_complex_casts(rng):
    q = real_density(rng, 2)
    p = real_density(rng, 4)
    got = evolve_single(DensityMatrix2(q), ALPHAS).matrix
    want = evolve_single(DensityMatrix2(q.astype(np.complex128)), ALPHAS).matrix
    assert np.array_equal(got, want)
    for a in ALPHAS[:8]:
        got = evolve_pair(DensityMatrix4(p), a).matrix
        want = evolve_pair(DensityMatrix4(p.astype(np.complex128)), a).matrix
        assert np.array_equal(got, want)


def test_pauli_axes_are_real_but_sigma_y():
    assert [p.dtype for p in states.PAULIS] == [np.float64, np.complex128, np.float64]


# ---------------------------------------------------------------------------
# measures on real states against their complex casts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 1.1, 0.5 * math.pi, 2.6])
def test_coherence_l1_is_exact_on_real_states(theta):
    s = evolved_x_state(theta, ALPHAS)
    assert np.array_equal(coherence_l1(s), coherence_l1(complex_cast(s)))


def test_coherence_l1_is_exact_on_real_density_matrices(rng):
    m = np.stack([real_density(rng, 4) for _ in range(50)])
    got = coherence_l1(DensityMatrix4(m))
    assert np.array_equal(got, coherence_l1(DensityMatrix4(m.astype(np.complex128))))


def test_qubit_trace_distance_is_exact_on_real_states(rng):
    # The qubit spectra are closed form: |m01| of a real entry is the
    # modulus of its complex cast, so the distances are the same doubles.
    r1, r2 = real_density(rng, 2), real_density(rng, 2)
    got = trace_distance(evolve_single(DensityMatrix2(r1), ALPHAS),
                         evolve_single(DensityMatrix2(r2), ALPHAS))
    want = trace_distance(evolve_single(DensityMatrix2(r1.astype(complex)), ALPHAS),
                          evolve_single(DensityMatrix2(r2.astype(complex)), ALPHAS))
    assert np.array_equal(got, want)
    # a real state against a complex one is compared in complex arithmetic
    mixed = trace_distance(DensityMatrix2(r1), DensityMatrix2(r2.astype(complex)))
    assert mixed == trace_distance(DensityMatrix2(r1.astype(complex)),
                                   DensityMatrix2(r2.astype(complex)))


def test_pair_trace_distance_agrees_with_complex_casts(rng):
    # 4x4 spectra come from LAPACK, whose real and complex routines round
    # differently; the distances agree to rounding.
    for _ in range(50):
        r1, r2 = real_density(rng, 4), real_density(rng, 4)
        got = trace_distance(DensityMatrix4(r1), DensityMatrix4(r2))
        want = trace_distance(DensityMatrix4(r1.astype(complex)),
                              DensityMatrix4(r2.astype(complex)))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_pair_scan_runs_real():
    ch = DephasingChannel(OhmicEnvironment(3.0, 1.6), 1.0)
    w = TimeWindow(100.0 / 1.6, 1024)
    (theta, _), val = blp_pair_scan(ch, w, n_angles=3)
    # the scan's axis states are real, so its distances are real-arithmetic
    # doubles; they equal those of the complex casts (closed-form spectra)
    avals = np.exp(-_exponent_values(ch, w.times()))
    nvec = math.sin(theta) * states.PAULIS[0] + math.cos(theta) * states.PAULIS[2]
    assert nvec.dtype == np.float64
    plus, minus = 0.5 * (np.eye(2) + nvec), 0.5 * (np.eye(2) - nvec)
    dist = trace_distance(evolve_single(DensityMatrix2(plus.astype(complex)), avals),
                          evolve_single(DensityMatrix2(minus.astype(complex)), avals))
    assert val == float(np.clip(np.diff(dist), 0.0, None).sum())


# ---------------------------------------------------------------------------
# QFI: the complex cast is the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.3, 1.1, 0.5 * math.pi, 2.6])
def test_qfi_general_real_agrees_with_complex_cast(theta):
    a = ALPHAS[1:-1]
    dadb = -2.0 * a * np.linspace(0.1, 3.0, len(a))
    s = evolved_x_state(theta, a)
    d = _drho_from(theta, a, dadb)
    assert s.matrix.dtype == d.dtype == np.float64
    want = qfi_general(complex_cast(s), d.astype(np.complex128))
    got = qfi_general(s, d)
    assert got.dtype == np.float64
    # closed-form blocks: a real coupling's phase is +/-1 in both dtypes
    assert np.array_equal(got, want)


def test_qfi_general_real_agrees_on_random_real_states(rng):
    m = np.stack([real_density(rng, 4) for _ in range(64)])
    h = rng.normal(size=(64, 4, 4))
    h = h + h.swapaxes(-1, -2)
    h -= np.trace(h, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    rtol = QFI_EPS_PER_SUM * np.finfo(float).eps / (2.0 * np.linalg.eigvalsh(m)[:, 0])
    want = qfi_general(DensityMatrix4(m.astype(complex)), h.astype(complex))
    assert np.all(np.abs(qfi_general(DensityMatrix4(m), h) - want) <= rtol * want)
    # one complex operand makes the rest complex
    assert np.all(np.abs(qfi_general(DensityMatrix4(m), h.astype(complex)) - want) <= rtol * want)


# ---------------------------------------------------------------------------
# tables: real states write the bytes of their complex casts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["corr-series", "state-dump"])
@pytest.mark.parametrize("theta", [1.1, 0.5 * math.pi])
def test_series_tables_equal_tables_of_complex_casts(monkeypatch, tmp_path, mode, theta):
    argv = [mode, "--q", "1.0", "3.0", "--gamma0", "0.01", "--t-max", "2.0",
            "--n-grid", "257", "--theta", str(theta)]
    real_out, cplx_out = tmp_path / "real.csv", tmp_path / "cplx.csv"
    assert cli.main(argv + ["--out", str(real_out)]) == 0
    real_state = states.evolved_x_state
    monkeypatch.setattr(states, "evolved_x_state",
                        lambda th, a: complex_cast(real_state(th, a)))
    assert states.evolved_x_state(theta, 0.5).matrix.dtype == np.complex128
    assert cli.main(argv + ["--out", str(cplx_out)]) == 0
    assert real_out.read_bytes() == cplx_out.read_bytes()
