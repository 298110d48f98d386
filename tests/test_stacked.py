"""Stacked per-sample layer: one call over a stack equals the per-state calls."""

from __future__ import annotations

import math

import numpy as np
import pytest

from topoqubit import (
    DensityMatrix2,
    DensityMatrix4,
    DephasingChannel,
    DomainError,
    OhmicEnvironment,
    TimeWindow,
    XState4,
    alpha_profile,
    coherence_l1,
    concurrence_x,
    discord_x,
    evolve_pair,
    evolve_single,
    evolved_x_state,
    lqu_x,
    qfi_general,
    qfi_series,
    report,
    tnd_x,
    trace_distance,
)
from topoqubit.cli import main
from topoqubit.dephasing import _exponent_values
from topoqubit.magnetometry import _drho_from
from conftest import random_density, random_x_state

MEASURES = (concurrence_x, discord_x, lqu_x, tnd_x, coherence_l1)
FIELDS = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")

# corners (alpha = 0 and 1) and the bulk of the family
ALPHAS = np.concatenate([[0.0, 1e-5, 3e-4, 1.0], np.linspace(0.01, 0.999, 61)])


def family_stack(theta: float) -> XState4:
    return evolved_x_state(theta, ALPHAS)


def random_stack(rng, n: int = 200) -> tuple[XState4, list[XState4]]:
    singles = [random_x_state(rng) for _ in range(n)]
    stack = XState4(*(np.array([getattr(s, f) for s in singles]) for f in FIELDS))
    return stack, singles


def random_drho(rng) -> np.ndarray:
    # Hermitian and traceless, complex off-diagonal entries
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    return h - np.trace(h) / 4.0 * np.eye(4)


def test_family_stack_fields_and_matrix():
    s = family_stack(1.1)
    assert s.shape == ALPHAS.shape
    assert s.matrix.shape == ALPHAS.shape + (4, 4)
    for i, a in enumerate(ALPHAS):
        one = evolved_x_state(1.1, float(a))
        assert one.shape == ()
        assert np.array_equal(s.matrix[i], one.matrix)


@pytest.mark.parametrize("measure", MEASURES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2.0, 2.9])
def test_measures_stacked_equal_scalar_on_family(measure, theta):
    got = measure(family_stack(theta))
    assert got.shape == ALPHAS.shape
    for g, a in zip(got, ALPHAS):
        want = measure(evolved_x_state(theta, float(a)))
        assert type(want) is float
        assert abs(g - want) <= 1e-15


@pytest.mark.parametrize("measure", MEASURES, ids=lambda f: f.__name__)
def test_measures_stacked_equal_scalar_on_random_states(rng, measure):
    stack, singles = random_stack(rng)
    assert np.iscomplexobj(stack.rho14) and np.abs(stack.rho23.imag).max() > 0.1
    got = measure(stack)
    want = np.array([measure(s) for s in singles])
    assert np.abs(got - want).max() <= 1e-15


def test_report_on_a_stack():
    r = report(family_stack(0.7))
    assert r.lqu.shape == ALPHAS.shape
    assert np.array_equal(r.tnd, tnd_x(family_stack(0.7)))


def test_qfi_general_stacked_equals_scalar_on_family():
    theta = 1.1
    dadb = -0.3 * ALPHAS * np.linspace(0.0, 2.0, ALPHAS.size)
    got = qfi_general(family_stack(theta), _drho_from(theta, ALPHAS, dadb))
    for g, a, d in zip(got, ALPHAS, dadb):
        want = qfi_general(evolved_x_state(theta, float(a)), _drho_from(theta, float(a), float(d)))
        assert type(want) is float
        assert abs(g - want) <= 1e-15


def test_qfi_general_stacked_equals_scalar_on_random_states(rng):
    stack, singles = random_stack(rng, 100)
    drho = np.array([random_drho(rng) for _ in singles])
    got = qfi_general(stack, drho)
    want = np.array([qfi_general(s, d) for s, d in zip(singles, drho)])
    assert np.abs(got - want).max() <= 1e-15


def test_x_state_rejects_one_bad_member():
    pops = np.full((5, 4), 0.25)
    rho14 = np.full(5, 0.1 + 0.1j)
    XState4(*pops.T, rho14=rho14)
    bad = rho14.copy()
    bad[3] = 0.3                                          # |rho14|^2 > rho11 rho44
    with pytest.raises(DomainError, match="rho14.*member 3"):
        XState4(*pops.T, rho14=bad)
    bad23 = np.zeros((2, 3), dtype=complex)
    bad23[1, 2] = 0.26j
    with pytest.raises(DomainError, match="rho23.*member 1, 2"):
        XState4(0.25, 0.25, 0.25, 0.25, rho23=bad23)
    neg = pops.copy()
    neg[2] = (0.5, 0.5, 0.2, -0.2)
    with pytest.raises(DomainError, match="rho44.*member 2"):
        XState4(*neg.T)
    off = pops.copy()
    off[4, 0] = 0.26
    with pytest.raises(DomainError, match="sum.*member 4"):
        XState4(*off.T)


def test_x_state_rejects_one_bad_determinant():
    pops = np.full((5, 4), 0.25)
    rho14 = np.full(5, 0.1 + 0.1j)
    det14 = np.full(5, 0.0625 - 0.02)                     # rho11 rho44 - |rho14|^2
    s = XState4(*pops.T, rho14=rho14, det14=det14)
    assert np.array_equal(s.det14, det14)
    bad = det14.copy()
    bad[3] += 1e-9
    with pytest.raises(DomainError, match="det14.*member 3"):
        XState4(*pops.T, rho14=rho14, det14=bad)
    det23 = np.full((2, 3), 0.0625)
    det23[1, 2] = -1e-13                                  # within _ATOL, but negative
    with pytest.raises(DomainError, match="det23.*member 1, 2"):
        XState4(0.25, 0.25, 0.25, 0.25, det23=det23)
    with pytest.raises(DomainError, match="det14"):
        XState4(0.25, 0.25, 0.25, 0.25, det14=float("nan"))


def test_x_state_determinants_from_entries():
    rho14 = np.array([0.1 + 0.1j, 0.25, 0.25 + 1e-14])    # last: |rho14|^2 > rho11 rho44
    s = XState4(0.25, 0.25, 0.25, 0.25, rho14=rho14, rho23=0.2j)
    assert s.det14.shape == s.det23.shape == (3,)
    assert np.array_equal(s.det14, np.maximum(0.0625 - np.abs(rho14) ** 2, 0.0))
    assert s.det14[1] == 0.0 and s.det14[2] == 0.0
    assert np.array_equal(s.det23, np.full(3, 0.0625 - 0.2 * 0.2))
    with pytest.raises(ValueError):
        s.det14[0] = 0.0


def test_evolved_x_state_carries_exact_determinants():
    # ((1 - alpha^4) / 4)^2 for both blocks, 0 at the pure state alpha = 1
    s = family_stack(0.4)
    assert np.array_equal(s.det14, s.rho22 * s.rho22)
    assert np.array_equal(s.det23, s.rho22 * s.rho22)
    assert s.det14[ALPHAS == 1.0] == 0.0


def test_x_state_fields_are_frozen_copies():
    a = np.array([0.2, 0.3, 0.25])
    s = XState4(a, 0.25, 0.25, 1.0 - 0.5 - a)
    a[0] = 5.0
    assert s.rho11[0] == 0.2
    with pytest.raises(ValueError):
        s.rho11[0] = 0.3


def test_evolved_x_state_rejects_one_bad_factor():
    with pytest.raises(DomainError, match="1.5"):
        evolved_x_state(1.0, np.array([0.2, 1.5, 0.3]))


def test_qfi_general_rejects_one_bad_derivative():
    theta = 1.1
    rho = family_stack(theta)
    drho = _drho_from(theta, ALPHAS, np.full(ALPHAS.size, -0.2))
    qfi_general(rho, drho)
    not_hermitian = drho.copy()
    not_hermitian[7, 0, 1] = 1e-9
    with pytest.raises(DomainError, match="Hermitian.*member 7"):
        qfi_general(rho, not_hermitian)
    not_traceless = drho.copy()
    not_traceless[9, 1, 1] += 1e-9
    with pytest.raises(DomainError, match="traceless.*member 9"):
        qfi_general(rho, not_traceless)
    with pytest.raises(DomainError, match="shape"):
        qfi_general(rho, drho[:-1])


def test_evolve_single_and_trace_distance_stacked_equal_per_element(rng):
    rho = DensityMatrix2(random_density(rng, 2))
    sigma = DensityMatrix2(random_density(rng, 2))
    a = ALPHAS.reshape(5, 13)
    plus = evolve_single(rho, a)
    minus = evolve_single(sigma, a)
    assert plus.matrix.shape == a.shape + (2, 2) and not plus.matrix.flags.writeable
    dist = trace_distance(plus, minus)
    assert dist.shape == a.shape
    for idx in np.ndindex(a.shape):
        one_plus = evolve_single(rho, float(a[idx]))
        one_minus = evolve_single(sigma, float(a[idx]))
        assert np.array_equal(plus.matrix[idx], one_plus.matrix)
        want = trace_distance(one_plus, one_minus)
        assert type(want) is float
        assert dist[idx] == want
    # two-qubit stacks: one distance per member as well
    s, t = family_stack(0.4), family_stack(2.2)
    dist4 = trace_distance(s, t)
    for i, a0 in enumerate(ALPHAS):
        want = trace_distance(evolved_x_state(0.4, float(a0)), evolved_x_state(2.2, float(a0)))
        assert dist4[i] == want
    with pytest.raises(DomainError, match="shape mismatch"):
        trace_distance(plus, evolve_single(sigma, ALPHAS))
    # an independent value with two positive eigenvalues in the difference:
    # diag(p, p, 1 - p, 1 - p)/2 and its reversal are |2p - 1| apart
    p = np.linspace(0.0, 1.0, 5)
    m = np.zeros((5, 4, 4))
    m[:, [0, 1], [0, 1]] = 0.5 * p[:, None]
    m[:, [2, 3], [2, 3]] = 0.5 * (1.0 - p[:, None])
    got = trace_distance(DensityMatrix4(m), DensityMatrix4(m[:, ::-1, ::-1]))
    assert np.abs(got - np.abs(2.0 * p - 1.0)).max() <= 1e-15


def test_density_stack_rejects_one_bad_member(rng):
    good2 = np.array([random_density(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
    assert DensityMatrix2(good2).matrix.shape == (2, 3, 2, 2)
    bad = good2.copy()
    bad[1, 2] = [[1.2, 0.0], [0.0, -0.2]]
    with pytest.raises(DomainError, match="negative eigenvalue"):
        DensityMatrix2(bad)
    bad = good2.copy()
    bad[0, 1, 0, 1] += 1e-9
    with pytest.raises(DomainError, match="Hermitian"):
        DensityMatrix2(bad)
    good4 = np.array([random_density(rng, 4) for _ in range(5)])
    DensityMatrix4(good4)
    bad = good4.copy()
    bad[3] *= 1.1
    with pytest.raises(DomainError, match="trace"):
        DensityMatrix4(bad)
    bad = good4.copy()
    bad[2, 0, 0] = np.nan
    with pytest.raises(DomainError, match="finite"):
        DensityMatrix4(bad)
    with pytest.raises(DomainError, match="2, 2"):
        DensityMatrix2(good4)


def test_evolve_takes_one_initial_state(rng):
    # only the coherence factor may be an array
    stack2 = DensityMatrix2(np.array([random_density(rng, 2) for _ in range(3)]))
    stack4 = DensityMatrix4(np.array([random_density(rng, 4) for _ in range(3)]))
    for a in (0.5, np.array([0.2, 0.5, 0.9])):
        with pytest.raises(DomainError, match="one initial state"):
            evolve_single(stack2, a)
        with pytest.raises(DomainError, match="one initial state"):
            evolve_pair(stack4, a)
    with pytest.raises(DomainError, match="one coherence factor"):
        evolve_pair(DensityMatrix4(stack4.matrix[0]), np.array([0.2, 0.5]))
    with pytest.raises(DomainError, match="1.5"):
        evolve_single(DensityMatrix2(stack2.matrix[0]), np.array([0.2, 1.5]))


def test_series_blocks_equal_one_whole_stack(tmp_path):
    # 4100 samples span two measure stacks (4096 + 4) and 17 QFI blocks
    n = 4100
    ch = DephasingChannel(OhmicEnvironment(3.0, 0.5), 1.0)
    w = TimeWindow(5.0, n)
    ts = w.times()
    avals, _ = alpha_profile(ch, ts)
    s = evolved_x_state(1.1, avals)
    flags = ["--q", "3.0", "--gamma0", "0.5", "--theta", "1.1", "--t-max", "5.0", "--n-grid", str(n)]
    out = tmp_path / "corr.csv"
    assert main(["corr-series", *flags, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#", skiprows=3)
    want = np.column_stack([ts, avals] + [f(s) for f in MEASURES])
    assert rows.shape == (n, 9)
    assert np.array_equal(rows[:, 2:], want)

    dump = tmp_path / "dump.csv"
    assert main(["state-dump", *flags, "--out", str(dump)]) == 0
    rows = np.loadtxt(dump, delimiter=",", comments="#", skiprows=3)
    m = s.matrix
    upper = m[:, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(n, 12)
    want = np.column_stack([ts, m.diagonal(axis1=-2, axis2=-1).real, pairs])
    assert np.array_equal(rows[:, 2:], want)

    evals = _exponent_values(ch, ts)
    dadb = -2.0 * (evals / ch.b) * avals
    f_whole = qfi_general(s, _drho_from(1.1, avals, dadb))
    assert np.array_equal(qfi_series(ch, 1.1, w).f_general, f_whole)
