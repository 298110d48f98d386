"""Shared oracles and helpers for the test suite.

Every numerical claim in the tests is checked against one of the
independent references defined here:

* arbitrary-precision evaluations of the special functions (mpmath at
  40 significant digits),
* Richardson-extrapolated central differences for every analytic
  derivative,
* a Kraus operator-sum construction for the two-qubit channel,
* a brute-force projective-measurement minimizer for quantum discord,
* a 4x4 eigendecomposition route for the local quantum uncertainty.

None of these share code with the package internals.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# arbitrary-precision special functions
# ---------------------------------------------------------------------------

def mp_hyp1f1(a: float, b: float, z: float) -> float:
    return float(mpmath.hyp1f1(a, b, z))


def mp_hyp2f2(z: float) -> float:
    return float(mpmath.hyper([1, 1], [mpmath.mpf(3) / 2, 2], z))


def mp_dhyp2f2(z: float) -> float:
    """d/dz 2F2({1,1};{3/2,2};z) = (1/3) 2F2({2,2};{5/2,3};z)."""
    return float(mpmath.hyper([2, 2], [mpmath.mpf(5) / 2, 3], z) / 3)


def mp_dawson(x: float) -> float:
    x = mpmath.mpf(x)
    return float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x))


def mp_gamma(x: float) -> float:
    return float(mpmath.gamma(x))


def _mp_i_q(q, g, t):
    # I_Q at mpmath precision: the general formula at every Q != 1, its 2F2
    # limit at Q = 1 exactly.  1 - M loses the digits of u at small u, and
    # Gamma(a) (1 - M) those of a near Q = 1: both are added to the working
    # precision.
    z = -(t * g) ** 2 / 4
    if z == 0:
        return mpmath.mpf(0)
    if q == 1:
        return (t * g) ** 2 * mpmath.hyper([1, 1], [mpmath.mpf(3) / 2, 2], z)
    a = (q - 1) / 2
    lost = max(0, -mpmath.log10(-z)) + max(0, -mpmath.log10(abs(a)))
    with mpmath.extradps(int(lost) + 5):
        pref = 2 * g ** (q - 1) * mpmath.gamma(a)
        return pref * (1 - mpmath.hyp1f1(a, mpmath.mpf(1) / 2, z))


def mp_i_q(q: float, gamma0: float, t: float) -> float:
    """Reference bath integral at 40 digits."""
    return float(_mp_i_q(mpmath.mpf(q), mpmath.mpf(gamma0), mpmath.mpf(t)))


def mp_di_q_dt(q: float, gamma0: float, t: float) -> float:
    """Reference dI_Q/dt = 2 Gamma((Q+1)/2) gamma0^(Q+1) t M((Q+1)/2; 3/2; -u)."""
    q, g, t = mpmath.mpf(q), mpmath.mpf(gamma0), mpmath.mpf(t)
    a1 = (q + 1) / 2
    z = -(t * g) ** 2 / 4
    return float(2 * mpmath.gamma(a1) * g ** (q + 1) * t * mpmath.hyp1f1(a1, mpmath.mpf(3) / 2, z))


def mp_alpha(q: float, gamma0: float, b: float, t: float) -> float:
    """Reference coherence factor exp(-2 B^2 |beta| I_Q) with
    |beta| = 4 pi / (Gamma(Q+1) gamma0^(Q+1)), all at 40 digits."""
    q, g, b = mpmath.mpf(q), mpmath.mpf(gamma0), mpmath.mpf(b)
    beta_abs = 4 * mpmath.pi / (mpmath.gamma(q + 1) * g ** (q + 1))
    return float(mpmath.exp(-2 * b * b * beta_abs * _mp_i_q(q, g, mpmath.mpf(t))))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def richardson_derivative(f, x: float, h: float = 1e-3) -> float:
    """Central difference with two Richardson extrapolation levels.

    Error scales as h^6, so h around 1e-3 resolves smooth functions to
    roughly 1e-12 relative before float cancellation takes over.
    """
    def central(step: float) -> float:
        return (f(x + step) - f(x - step)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    d3 = central(h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


# ---------------------------------------------------------------------------
# Kraus operator-sum oracle for the pair channel
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kraus_pair_evolve(matrix: np.ndarray, a: float) -> np.ndarray:
    """Two-qubit dephasing via explicit Kraus operators.

    A single qubit dephasing channel with coherence factor a is the Pauli
    channel with weights p0 = (1+a)^2/4, p1 = p2 = (1-a^2)/4,
    p3 = (1-a)^2/4; the pair channel is its twofold tensor product.
    """
    p = np.array([
        (1.0 + a) ** 2 / 4.0,
        (1.0 - a * a) / 4.0,
        (1.0 - a * a) / 4.0,
        (1.0 - a) ** 2 / 4.0,
    ])
    ops = [_I2, _X, _Y, _Z]
    kraus = [math.sqrt(max(pi, 0.0)) * op for pi, op in zip(p, ops)]
    out = np.zeros((4, 4), dtype=complex)
    for ka in kraus:
        for kb in kraus:
            k = np.kron(ka, kb)
            out += k @ matrix @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# brute-force quantum discord
# ---------------------------------------------------------------------------

def _entropy_eigs(eigs: np.ndarray) -> float:
    w = np.clip(eigs, 0.0, 1.0)
    nz = w[w > 1e-300]
    return float(-(nz * np.log2(nz)).sum())


def _conditional_entropy_grid(rho4: np.ndarray, thetas: np.ndarray,
                              phis: np.ndarray) -> tuple[float, int, int]:
    """Min over the grid of the post-measurement entropy of qubit A.

    Measurement is projective on qubit B with axis (theta, phi).  Returns
    the minimum and the grid indices where it is attained.
    """
    r = rho4.reshape(2, 2, 2, 2)    # indices a, b, a', b'
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ct = np.cos(tt / 2.0).ravel()
    st = np.sin(tt / 2.0).ravel()
    ph = np.exp(1j * pp.ravel())
    vecs = np.stack([ct, st * ph], axis=1)              # (N, 2)
    perps = np.stack([-st * ph.conj(), ct + 0j], axis=1)

    best = math.inf
    best_idx = 0
    n = vecs.shape[0]
    chunk = 65536
    for lo in range(0, n, chunk):
        cond_total = np.zeros(min(chunk, n - lo))
        for branch in (vecs[lo:lo + chunk], perps[lo:lo + chunk]):
            # unnormalized conditional block on A, one 2x2 per grid point
            t = np.einsum("nb,abcd,nd->nac", branch.conj(), r, branch)
            prob = np.einsum("nii->n", t).real
            det = (t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]).real
            disc = np.sqrt(np.clip(prob * prob - 4.0 * det, 0.0, None))
            lam1 = np.clip((prob + disc) / 2.0, 0.0, None)
            lam2 = np.clip((prob - disc) / 2.0, 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                w1 = np.where(prob > 1e-15, lam1 / np.maximum(prob, 1e-300), 0.0)
                w2 = np.where(prob > 1e-15, lam2 / np.maximum(prob, 1e-300), 0.0)
                ent = np.zeros_like(prob)
                for w in (w1, w2):
                    mask = w > 1e-300
                    ent[mask] -= w[mask] * np.log2(w[mask])
            cond_total += prob * ent
        i = int(np.argmin(cond_total))
        if cond_total[i] < best:
            best = float(cond_total[i])
            best_idx = lo + i
    return best, best_idx // phis.size, best_idx % phis.size


def brute_discord(rho4: np.ndarray, n_theta: int = 181, n_phi: int = 361) -> float:
    """Quantum discord by scanning all projective measurements on qubit B.

    Coarse grid over the Bloch sphere followed by two local refinement
    rounds around the running optimum; resolves the minimum to well below
    1e-8 for smooth conditional-entropy landscapes.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    best, it, ip = _conditional_entropy_grid(rho4, thetas, phis)
    th0, ph0 = thetas[it], phis[ip]
    dth, dph = thetas[1] - thetas[0], phis[1] - phis[0]
    for _ in range(2):
        thetas = np.linspace(th0 - dth, th0 + dth, 41)
        phis = np.linspace(ph0 - dph, ph0 + dph, 41)
        val, it, ip = _conditional_entropy_grid(rho4, thetas, phis)
        best = min(best, val)
        th0, ph0 = thetas[it], phis[ip]
        dth, dph = thetas[1] - thetas[0], phis[1] - phis[0]

    eig_ab = np.linalg.eigvalsh(rho4)
    rho_b = np.einsum("abad->bd", rho4.reshape(2, 2, 2, 2))
    eig_b = np.linalg.eigvalsh(rho_b)
    return _entropy_eigs(eig_b) - _entropy_eigs(eig_ab) + best


# ---------------------------------------------------------------------------
# brute-force local quantum uncertainty
# ---------------------------------------------------------------------------

_PAULI_A = np.stack([np.kron(p, _I2) for p in (_X, _Y, _Z)])


def brute_lqu(matrix: np.ndarray) -> np.ndarray:
    """LQU of a stack of 4x4 states from the full eigendecomposition.

    1 - max eigenvalue of W_ij = Tr(B_i B_j), B_i = sqrt(rho) (sigma_i x I),
    with sqrt(rho) from one batched eigh.  Eigenvalues within eigh's own
    rounding of zero (16 eps of the largest) are taken as exactly zero: the
    square root would turn that ~1e-17 noise into ~3e-9, and the LQU of a
    state with a rank-deficient block with it.
    """
    w, v = np.linalg.eigh(matrix)
    w = np.where(w > 16.0 * np.finfo(float).eps * w.max(axis=-1, keepdims=True), w, 0.0)
    sq = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    b = sq[..., None, :, :] @ _PAULI_A
    wmat = np.einsum("...ikl,...jlk->...ij", b, b).real
    return 1.0 - np.linalg.eigvalsh(wmat)[..., -1]


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_x_state(rng: np.random.Generator):
    """Random valid X-form density matrix (as an XState4)."""
    from topoqubit import XState4

    pops = rng.dirichlet(np.ones(4))
    f14, f23 = rng.uniform(0.0, 0.98, size=2)
    phase14, phase23 = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
    rho14 = f14 * math.sqrt(pops[0] * pops[3]) * phase14
    rho23 = f23 * math.sqrt(pops[1] * pops[2]) * phase23
    return XState4(pops[0], pops[1], pops[2], pops[3], rho14=rho14, rho23=rho23)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
