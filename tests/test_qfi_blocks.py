"""The QFI and the spectra taken one diagonal block at a time.

``states._diagonal_blocks`` splits a stack into the blocks that the state and
its derivative share; ``qfi_general`` sums the QFI block by block, with blocks
of size 1 and 2 in closed form.  The reference is the full-matrix formula:
one ``eigh`` of the whole 4x4 matrix and one stacked product.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from topoqubit import (
    DensityMatrix2,
    DensityMatrix4,
    DephasingChannel,
    OhmicEnvironment,
    TimeWindow,
    cli,
    evolved_x_state,
    qfi_general,
    qfi_series,
    trace_distance,
)
from topoqubit.magnetometry import _KERNEL_TOL, _drho_from
from topoqubit.states import _diagonal_blocks, _eigvalsh
from conftest import random_density, random_x_state
from test_dtype import QFI_EPS_PER_SUM, QFI_RTOL, real_density

_RECIPES = Path(__file__).resolve().parents[1] / "recipes"


def oracle_qfi(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    # The QFI from one eigh of the whole matrix, kernel pairs left out.
    lam, vec = np.linalg.eigh(m)
    a = vec.conj().swapaxes(-1, -2) @ d @ vec
    s = lam[..., :, None] + lam[..., None, :]
    mask = s > _KERNEL_TOL
    return np.where(mask, 2.0 * np.abs(a) ** 2 / np.where(mask, s, 1.0), 0.0).sum(axis=(-2, -1))


def assert_matches_oracle(m: np.ndarray, d: np.ndarray) -> None:
    # The tolerance of tests/test_dtype.py: eigh moves each eigenvalue by
    # about eps, so a term moves by about eps/(lambda_i + lambda_j) relative;
    # the smallest sum outside the kernel bounds it.
    want = oracle_qfi(m, d)
    got = qfi_general(DensityMatrix4(m), d)
    lam = np.linalg.eigvalsh(m)
    sums = lam[..., :, None] + lam[..., None, :]
    smallest = np.where(sums > _KERNEL_TOL, sums, np.inf).min(axis=(-2, -1))
    rtol = QFI_EPS_PER_SUM * np.finfo(float).eps / smallest
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= rtol * want + 1e-300), np.abs(got - want) / want


def block_stack(rng, n: int, blocks, dtype) -> tuple[np.ndarray, np.ndarray]:
    # n random states and traceless Hermitian derivatives, both nonzero only
    # on the diagonal blocks ``blocks`` of 4x4 matrices.
    m = np.zeros((n, 4, 4), dtype=dtype)
    d = np.zeros((n, 4, 4), dtype=dtype)
    weights = rng.dirichlet(np.ones(len(blocks)), size=n)
    for k, idx in enumerate(blocks):
        ix = np.array(idx)[:, None], np.array(idx)
        for i in range(n):
            if dtype == np.complex128:
                b = random_density(rng, len(idx))
                g = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
            else:
                b = real_density(rng, len(idx))
                g = rng.normal(size=(len(idx),) * 2)
            m[i][ix] = weights[i, k] * b
            d[i][ix] = g + g.conj().T
    d -= np.trace(d, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    return m, d


# ---------------------------------------------------------------------------
# the split
# ---------------------------------------------------------------------------

def test_blocks_are_the_joint_pattern_components():
    x = np.zeros((3, 4, 4))
    x[..., [0, 1, 2, 3], [0, 1, 2, 3]] = 0.25
    assert _diagonal_blocks(x) == [(0,), (1,), (2,), (3,)]
    x[1, 0, 3] = x[1, 3, 0] = 0.1          # one member couples 1 and 4
    assert _diagonal_blocks(x) == [(0, 3), (1,), (2,)]
    d = np.zeros((3, 4, 4))
    d[2, 2, 1] = 1.0                       # a coupling in one stack, one triangle
    assert _diagonal_blocks(x, d) == [(0, 3), (1, 2)]
    d[0, 3, 2] = 1.0                       # chains 1-4 and 3-4 into one block
    assert _diagonal_blocks(x, d) == [(0, 1, 2, 3)]


def test_blocks_of_the_bell_like_family():
    a = np.linspace(0.0, 1.0, 9)
    s = evolved_x_state(1.1, a)
    d = _drho_from(1.1, a, -a)
    assert _diagonal_blocks(s.matrix, d) == [(0, 3), (1,), (2,)]
    assert _diagonal_blocks(s.matrix) == [(0, 3), (1,), (2,)]


# ---------------------------------------------------------------------------
# block-diagonal stacks against the full-matrix oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("blocks", [((0, 1), (2, 3)), ((0, 3), (1, 2)), ((0, 2), (1,), (3,)),
                                    ((0, 1, 2), (3,)), ((1,), (0, 2, 3))])
def test_block_diagonal_stacks_match_the_oracle(rng, dtype, blocks):
    m, d = block_stack(rng, 64, blocks, dtype)
    assert _diagonal_blocks(m, d) == sorted(blocks)
    assert_matches_oracle(m, d)


@pytest.mark.parametrize("complex_coherences", [False, True])
def test_x_states_match_the_oracle(rng, complex_coherences):
    # X states: the non-contiguous blocks {1,4} and {2,3}
    states = [random_x_state(rng) for _ in range(40)]
    m = np.stack([s.matrix for s in states])
    if not complex_coherences:
        m = np.abs(m)
    g = rng.normal(size=(40, 4, 4))
    if complex_coherences:
        g = g + 1j * rng.normal(size=(40, 4, 4))
    d = np.zeros_like(m)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)):
        d[:, i, j] = g[:, i, j]
        d[:, j, i] = np.conj(g[:, i, j])
    d[:, [0, 1, 2, 3], [0, 1, 2, 3]] = d[:, [0, 1, 2, 3], [0, 1, 2, 3]].real
    d -= np.trace(d, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    assert _diagonal_blocks(m, d) == [(0, 3), (1, 2)]
    assert_matches_oracle(m, d)


def test_degenerate_block_takes_any_frame():
    # equal diagonal and no coupling in the state: the block {1,2} is split
    # only by the derivative's coupling, and any basis diagonalizes the state
    m = np.diag([0.3, 0.3, 0.2, 0.2])
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0], d[1, 1], d[2, 2], d[3, 3] = 0.1, -0.1, 0.05, -0.05
    d[0, 1] = 0.05 + 0.02j
    d[1, 0] = np.conj(d[0, 1])
    assert _diagonal_blocks(m, d) == [(0, 1), (2,), (3,)]
    want = (2 * 0.01 / 0.6 + 2 * 0.01 / 0.6 + 4 * abs(d[0, 1]) ** 2 / 0.6
            + 2 * 0.0025 / 0.4 + 2 * 0.0025 / 0.4)
    assert qfi_general(DensityMatrix4(m), d) == pytest.approx(want, rel=1e-15)
    assert_matches_oracle(m, d)


def test_rank_deficient_block_leaves_its_kernel_out():
    # the kernel direction of the block {1,2} carries a derivative entry that
    # would make the sum infinite if its lambda = 0 pair were kept
    m = np.diag([0.5, 0.0, 0.25, 0.25])
    d = np.array([[0.1, 0.3, 0.0, 0.0],
                  [0.3, 0.2, 0.0, 0.0],
                  [0.0, 0.0, -0.15, 0.0],
                  [0.0, 0.0, 0.0, -0.15]])
    assert qfi_general(DensityMatrix4(m), d) == pytest.approx(
        2 * 0.01 / 1.0 + 4 * 0.09 / 0.5 + 2 * 2 * 0.0225 / 0.5, rel=1e-15)
    # the same block turned: the pure qubit p |v><v| with a complex v
    v = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.7j)])
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = 0.6 * np.outer(v, v.conj())
    m[1, 1] = m[2, 2] = 0.2
    d = np.zeros((4, 4), dtype=complex)
    d[np.ix_([0, 3], [0, 3])] = [[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.5]]
    d[1, 1] = d[2, 2] = -0.4
    assert abs(np.linalg.eigvalsh(m)[0]) < 1e-16
    f = qfi_general(DensityMatrix4(m), d)
    assert math.isfinite(f) and f < 10.0
    assert_matches_oracle(m, d)


def test_pure_qubit_coupled_by_the_derivative_alone():
    # |0><0| is diagonal, so its own pattern would split {1} from {2};
    # sigma_x couples them.  A qubit is one block unscanned.
    ket0 = DensityMatrix2(np.array([[1.0, 0.0], [0.0, 0.0]]))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert _diagonal_blocks(ket0.matrix) == [(0, 1)]
    assert qfi_general(ket0, sx) == 4.0
    assert qfi_general(ket0, sx.astype(complex)) == 4.0
    assert qfi_general(ket0, sy) == 4.0
    # the same qubit inside a pair, |00><00| with sigma_x on the first two
    # levels: the state's pattern alone is four 1x1 blocks
    m = np.diag([1.0, 0.0, 0.0, 0.0])
    d = np.zeros((4, 4))
    d[:2, :2] = sx
    assert _diagonal_blocks(m) == [(0,), (1,), (2,), (3,)]
    assert _diagonal_blocks(m, d) == [(0, 1), (2,), (3,)]
    assert qfi_general(DensityMatrix4(m), d) == 4.0
    stack = qfi_general(DensityMatrix4(np.stack([m, m])), np.stack([d, 0.5 * d]))
    assert stack.tolist() == [4.0, 1.0]


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5 * math.pi, 2.6, math.pi])
def test_bell_like_family_matches_the_oracle(theta):
    a = np.concatenate([[0.0, 1e-5, 1e-3], np.linspace(0.01, 0.99, 60)])
    dadb = -2.0 * a * np.linspace(0.1, 3.0, len(a))
    s = evolved_x_state(theta, a)
    d = _drho_from(theta, a, dadb)
    np.testing.assert_allclose(qfi_general(s, d), oracle_qfi(s.matrix, d), rtol=QFI_RTOL, atol=0.0)


# ---------------------------------------------------------------------------
# one block: the full-matrix formula, to the bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_one_block_stacks_give_the_full_matrix_doubles(rng, dtype):
    n = 64
    if dtype == np.float64:
        m = np.stack([real_density(rng, 4) for _ in range(n)])
        g = rng.normal(size=(n, 4, 4))
    else:
        m = np.stack([random_density(rng, 4) for _ in range(n)])
        g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    d = g + g.conj().swapaxes(-1, -2)
    d -= np.trace(d, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    assert _diagonal_blocks(m, d) == [(0, 1, 2, 3)]
    got = qfi_general(DensityMatrix4(m), d)
    assert np.array_equal(got, oracle_qfi(m, d))
    assert qfi_general(DensityMatrix4(m[3]), d[3]) == float(oracle_qfi(m[3], d[3]))


# ---------------------------------------------------------------------------
# spectra of X-structured stacks
# ---------------------------------------------------------------------------

def test_x_state_spectra_are_closed_form_and_ascending(rng):
    m = np.stack([random_x_state(rng).matrix for _ in range(200)])
    got = _eigvalsh(m)
    assert got.shape == (200, 4)
    assert np.all(np.diff(got, axis=-1) >= 0.0)
    assert np.abs(got - np.linalg.eigvalsh(m)).max() <= 1e-15
    real = np.abs(m)
    assert np.abs(_eigvalsh(real) - np.linalg.eigvalsh(real)).max() <= 1e-15


# ---------------------------------------------------------------------------
# no LAPACK on the X-state paths
# ---------------------------------------------------------------------------

@pytest.fixture
def no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on an X-state path")

    for name in ("eigh", "eigvalsh", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)


def test_qfi_series_calls_no_lapack(no_lapack):
    ch = DephasingChannel(OhmicEnvironment(3.0, 1.6), 1.0)
    for theta in (0.0, 1.1, 0.5 * math.pi):
        series = qfi_series(ch, theta, TimeWindow(62.5, 512))
        resolved = series.f_closed >= 1e-280
        assert np.all(series.rel_gap[resolved] <= QFI_RTOL)


def test_x_state_checks_and_distances_call_no_lapack(rng, no_lapack):
    x = [random_x_state(rng) for _ in range(8)]
    m = np.stack([s.matrix for s in x])
    DensityMatrix4(m)
    dist = trace_distance(DensityMatrix4(m), evolved_x_state(1.1, np.linspace(0.0, 1.0, 8)))
    assert dist.shape == (8,) and np.all((dist >= 0.0) & (dist <= 1.0 + 1e-15))


@pytest.mark.parametrize("recipe", ["fig4", "fig7", "rebirth"])
def test_recipes_call_no_lapack(tmp_path, no_lapack, recipe):
    spec = _RECIPES / f"{recipe}.json"
    mode = {"fig4": "corr-series", "fig7": "qfi-series", "rebirth": "corr-series"}[recipe]
    assert cli.main([mode, "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "out.csv").stat().st_size > 0
