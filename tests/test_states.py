"""State containers, channel action, and the Bloch-sphere picture."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoqubit import (
    BlochAffineMap,
    DensityMatrix2,
    DensityMatrix4,
    DomainError,
    XState4,
    bell_like,
    bloch_affine_map,
    evolve_pair,
    evolve_single,
    evolved_x_state,
    trace_distance,
)
from topoqubit import states
from topoqubit.states import _check_density, _eigvalsh
from conftest import kraus_pair_evolve, random_density


def dm2(m) -> DensityMatrix2:
    return DensityMatrix2(np.asarray(m, dtype=complex))


def dm4(m) -> DensityMatrix4:
    return DensityMatrix4(np.asarray(m, dtype=complex))


KET0 = dm2([[1, 0], [0, 0]])
KET1 = dm2([[0, 0], [0, 1]])
PLUS = dm2([[0.5, 0.5], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_density_validation():
    with pytest.raises(DomainError):
        dm2([[1, 0, 0], [0, 0, 0]])
    with pytest.raises(DomainError):
        dm2([[0.5, 0.5], [0.2, 0.5]])                   # not Hermitian
    with pytest.raises(DomainError):
        dm2([[0.7, 0], [0, 0.7]])                       # trace 1.4
    with pytest.raises(DomainError):
        dm2([[1.2, 0], [0, -0.2]])                      # negative eigenvalue
    with pytest.raises(DomainError):
        dm2([[np.nan, 0], [0, 1]])
    m = dm2([[0.5, 0.1], [0.1, 0.5]]).matrix
    assert not m.flags.writeable
    # stacked check: one member with a negative eigenvalue fails the stack
    stack = np.array([[[0.5, 0.1], [0.1, 0.5]],
                      [[1.2, 0.0], [0.0, -0.2]],
                      [[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(DomainError, match="negative eigenvalue"):
        _check_density(stack)
    _check_density(stack[[0, 2]])


def _generic_check_density(m):
    # The checks as written for any d, with the conjugate transpose and
    # np.trace: the reference for the d = 2 closed form.
    if not np.isfinite(m).all():
        raise DomainError("density matrix entries must be finite")
    herm_defect = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
    if herm_defect > states._ATOL:
        raise DomainError(f"matrix is not Hermitian (defect {herm_defect:.3e} > {states._ATOL})")
    tr_defect = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if tr_defect > states._ATOL:
        raise DomainError(f"trace deviates from 1 by {tr_defect:.3e} > {states._ATOL}")
    lam_min = float(_eigvalsh(m).min())
    if lam_min < -states._ATOL:
        raise DomainError(f"matrix has negative eigenvalue {lam_min:.3e} < -{states._ATOL}")


def _crafted_qubit_stacks():
    # (name, stack): valid stacks, stacks with one bad member, and stacks on
    # both sides of the Hermiticity tolerance
    base = np.array([[[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]],
                     [[1.0, 0.0], [0.0, 0.0]],
                     [[0.3, 0.25j], [-0.25j, 0.7]],
                     [[0.9, 0.1], [0.1, 0.1]]], dtype=complex)
    cases = [("valid", base), ("valid single", base[0]),
             ("valid 2-d stack", base.reshape(2, 2, 2, 2))]

    def bad(name, member, idx, value, add=True):
        m = base.copy()
        m[(member,) + idx] = m[(member,) + idx] + value if add else value
        cases.append((name, m))

    bad("imaginary diagonal", 2, (0, 0), 3e-12j)
    bad("imaginary diagonal at 1, 1", 1, (1, 1), -7e-12j)
    bad("mismatched off-diagonal, real", 0, (0, 1), 4e-12)
    bad("mismatched off-diagonal, imaginary", 3, (1, 0), 2.5e-12j)
    bad("trace off by 2e-12", 3, (0, 0), 2e-12)
    bad("trace off by -2e-12", 1, (1, 1), -2e-12)
    bad("NaN", 2, (1, 0), math.nan, add=False)
    bad("inf", 0, (0, 0), complex(0.5, math.inf), add=False)
    m = base.copy()
    m[1] = [[1.2, 0.0], [0.0, -0.2]]
    cases.append(("negative eigenvalue", m))
    # the smaller eigenvalue from the coherence, from the diagonal, and with
    # several bad members, the least of them reported
    m = base.copy()
    m[2] = [[0.5, 0.6j], [-0.6j, 0.5]]
    cases.append(("negative eigenvalue from the coherence", m))
    m = base.copy()
    m[0] = [[-0.3, 0.1], [0.1, 1.3]]
    m[3] = [[0.5, 0.5 + 0.5j], [0.5 - 0.5j, 0.5]]
    cases.append(("negative eigenvalues in two members", m.reshape(2, 2, 2, 2)))
    # lam = 0.5 - c, exact: the last c above 0.5 that passes, and the next
    ulp = math.ulp(0.5)
    c = 0.5 + ulp * math.floor(1e-12 / ulp)
    for name, value in (("at", c), ("past", math.nextafter(c, 1.0))):
        m = base.copy()
        m[1] = [[0.5, value], [value, 0.5]]
        cases.append((f"negative eigenvalue {name} the tolerance", m))
    # 2 |Im m00| = 1e-12 passes, the next double above fails
    bad("diagonal defect at the tolerance", 0, (0, 0), 5e-13j)
    bad("diagonal defect past the tolerance", 0, (0, 0), complex(0.0, math.nextafter(5e-13, 1.0)))
    bad("off-diagonal defect at the tolerance", 1, (0, 1), 1e-12)
    bad("off-diagonal defect past the tolerance", 1, (0, 1), math.nextafter(1e-12, 1.0))
    return cases


_QUBIT_STACKS = _crafted_qubit_stacks()


@pytest.mark.parametrize("name, m", _QUBIT_STACKS, ids=[name for name, _ in _QUBIT_STACKS])
def test_qubit_check_density_equals_the_general_checks(name, m):
    # the d = 2 closed form passes or fails as the general expressions do,
    # with the same message and defect value
    if name.startswith("valid") or name.endswith("at the tolerance"):
        _generic_check_density(m)
        _check_density(m)
        return
    with pytest.raises(DomainError) as want:
        _generic_check_density(m)
    with pytest.raises(DomainError) as got:
        _check_density(m)
    assert str(got.value) == str(want.value)


def test_x_state_validation():
    with pytest.raises(DomainError):
        XState4(0.5, 0.5, 0.2, -0.2)
    with pytest.raises(DomainError):
        XState4(0.4, 0.4, 0.4, 0.4)                     # populations sum to 1.6
    with pytest.raises(DomainError):
        XState4(0.25, 0.25, 0.25, 0.25, rho14=0.3)      # exceeds cross bound
    with pytest.raises(DomainError):
        XState4(0.25, 0.25, 0.25, 0.25, rho23=0.26)
    s = XState4(0.4, 0.1, 0.1, 0.4, rho14=0.2j)
    m = s.matrix
    assert m[0, 3] == 0.2j and m[3, 0] == -0.2j
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)


def test_bloch_affine_map_validation():
    with pytest.raises(DomainError):
        BlochAffineMap(np.eye(2))
    am = BlochAffineMap(0.5 * np.eye(3))
    assert am.det == pytest.approx(0.125, rel=1e-15, abs=0.0)
    assert isinstance(am.det, float)
    assert np.all(am.c == 0.0)
    # a stack: one offset per matrix, zeros by default
    stack = BlochAffineMap(np.broadcast_to(0.5 * np.eye(3), (4, 3, 3)))
    assert stack.c.shape == (4, 3) and np.all(stack.c == 0.0)
    assert stack.det.shape == (4,)
    with pytest.raises(DomainError, match="offsets of shape"):
        BlochAffineMap(np.zeros((4, 3, 3)), np.zeros(3))
    with pytest.raises(DomainError, match="offsets of shape"):
        BlochAffineMap(np.zeros((4, 3, 3)), np.zeros((5, 3)))
    with pytest.raises(DomainError, match="offsets of shape"):
        BlochAffineMap(np.eye(3), np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# single-qubit action
# ---------------------------------------------------------------------------

def test_evolve_single_identity_at_full_coherence():
    for rho in (KET0, KET1, PLUS):
        out = evolve_single(rho, 1.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_evolve_single_formulas():
    out = evolve_single(KET0, 0.6)
    # populations relax toward 1/2 with weight a^2
    assert out.matrix[0, 0] == pytest.approx(0.5 * (1.0 + 0.36), rel=1e-15, abs=0.0)
    out = evolve_single(PLUS, 0.6)
    assert out.matrix[0, 1] == pytest.approx(0.5 * 0.6, rel=1e-15, abs=0.0)
    assert out.matrix[0, 0] == pytest.approx(0.5, rel=1e-15, abs=0.0)


def test_evolve_single_domain():
    # a = 0 is the fully dephased state I/2; a outside [0, 1] is an error
    for rho in (KET0, PLUS):
        assert np.array_equal(evolve_single(rho, 0.0).matrix, 0.5 * np.eye(2))
    for a in (-0.1, 1.2):
        with pytest.raises(DomainError):
            evolve_single(KET0, a)


def test_evolve_composition():
    # the family is a semigroup in the coherence factor
    rho = dm2([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    a1, a2 = 0.8, 0.55
    two_step = evolve_single(evolve_single(rho, a1), a2)
    one_step = evolve_single(rho, a1 * a2)
    assert np.allclose(two_step.matrix, one_step.matrix, atol=1e-15)


# ---------------------------------------------------------------------------
# pair action
# ---------------------------------------------------------------------------

def test_evolve_pair_matches_kraus_oracle(rng):
    worst = 0.0
    for _ in range(50):
        m = random_density(rng, 4)
        a = float(rng.uniform(0.05, 1.0))
        got = evolve_pair(dm4(m), a).matrix
        want = kraus_pair_evolve(m, a)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-14


def test_evolve_pair_identity_and_diagonal():
    bell = bell_like(math.pi / 2)
    assert np.allclose(evolve_pair(bell, 1.0).matrix, bell.matrix, atol=1e-15)
    ket00 = dm4(np.diag([1.0, 0.0, 0.0, 0.0]))
    out = evolve_pair(ket00, 0.5).matrix
    assert np.allclose(out, np.diag(np.diag(out)), atol=1e-15)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def test_evolve_pair_matches_x_state_family():
    for theta in np.linspace(0.0, math.pi, 9):
        for a in (0.05, 0.4, 0.9, 1.0):
            via_pair = evolve_pair(bell_like(float(theta)), a).matrix
            via_x = evolved_x_state(float(theta), a).matrix
            assert np.abs(via_pair - via_x).max() <= 1e-14


def test_evolve_pair_domain():
    # the domain of evolve_single and evolved_x_state; a = 0 gives I/4
    for theta in (0.0, 1.1, math.pi / 2):
        out = evolve_pair(bell_like(theta), 0.0).matrix
        assert np.abs(out - 0.25 * np.eye(4)).max() <= 1e-16
        assert np.abs(out - evolved_x_state(theta, 0.0).matrix).max() <= 1e-16
    for a in (-0.1, 1.2, math.nan):
        with pytest.raises(DomainError):
            evolve_pair(bell_like(1.1), a)


def test_bell_like_endpoints():
    assert np.allclose(bell_like(0.0).matrix, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    assert np.allclose(bell_like(math.pi).matrix, np.diag([0, 0, 0, 1.0]), atol=1e-15)
    m = bell_like(math.pi / 2).matrix
    assert m[0, 0] == pytest.approx(0.5, rel=1e-15, abs=0.0)
    assert m[0, 3] == pytest.approx(0.5, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        bell_like(-0.1)
    with pytest.raises(DomainError):
        bell_like(3.5)


def test_evolved_x_state_entries():
    theta, a = math.pi / 3, 0.7
    s = evolved_x_state(theta, a)
    m = s.matrix
    a2, a4 = a * a, a ** 4
    assert m[0, 0].real == pytest.approx(0.25 * (1 + a4) + 0.5 * a2 * math.cos(theta),
                                         rel=1e-14, abs=0.0)
    assert m[1, 1].real == pytest.approx(0.25 * (1 - a4), rel=1e-14, abs=0.0)
    assert m[2, 2].real == pytest.approx(0.25 * (1 - a4), rel=1e-14, abs=0.0)
    assert m[0, 3].real == pytest.approx(0.5 * a2 * math.sin(theta), rel=1e-14, abs=0.0)
    assert evolved_x_state(theta, 0.0).matrix[0, 3] == 0.0


_X_FIELDS = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23", "det14", "det23")


@pytest.mark.parametrize("theta", [0.0, 1.1, math.pi / 2, math.pi])
@pytest.mark.parametrize("a", [0.0, 1e-300, 0.5, 1.0, (0.0, 1e-300, 0.5, 1.0)])
def test_evolved_x_state_stores_what_the_checks_would(theta, a):
    # evolved_x_state skips XState4's checks; its fields are the read-only
    # float64 arrays the checking constructor stores for the same entries,
    # bit for bit (0.0 against -0.0 too), and that constructor accepts them
    a2 = np.asarray(a) ** 2
    a4 = a2 * a2
    c = math.cos(theta)
    rho22 = 0.25 * (1.0 - a4)
    entries = (
        0.25 * (1.0 + a4) + 0.5 * a2 * c, rho22, rho22, 0.25 * (1.0 + a4) - 0.5 * a2 * c,
        0.5 * a2 * math.sin(theta), 0.0, rho22 * rho22, rho22 * rho22,
    )
    got = evolved_x_state(theta, a)
    for want in (XState4(*entries), XState4(*(getattr(got, name) for name in _X_FIELDS))):
        for name in _X_FIELDS:
            g, w = getattr(got, name), getattr(want, name)
            assert isinstance(g, np.ndarray) and not g.flags.writeable, name
            assert g.dtype == w.dtype == np.float64 and g.shape == w.shape == np.shape(a), name
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), name


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_eigvalsh_closed_form_matches_lapack(rng):
    mixed = np.array([random_density(rng, 2) for _ in range(500)])
    kets = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    pure = np.einsum("ni,nj->nij", kets, kets.conj())
    diffs = mixed - pure  # the trace distance's traceless differences
    for stack in (mixed, pure, diffs, pure.reshape(25, 20, 2, 2), mixed[0]):
        got = _eigvalsh(stack)
        assert got.shape == stack.shape[:-1]
        assert np.abs(got - np.linalg.eigvalsh(stack)).max() <= 1e-15
    # other sizes go to LAPACK
    m4 = np.array([random_density(rng, 4) for _ in range(3)])
    assert np.array_equal(_eigvalsh(m4), np.linalg.eigvalsh(m4))


def test_trace_distance_basics():
    assert trace_distance(KET0, KET0) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(KET0, KET1) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert trace_distance(KET0, PLUS) == pytest.approx(math.sqrt(0.5), rel=1e-12, abs=0.0)


def test_trace_distance_of_evolved_poles():
    # antipodal initial states keep distance a^2 under the channel
    for a in (0.1, 0.5, 0.9):
        d = trace_distance(evolve_single(KET0, a), evolve_single(KET1, a))
        assert d == pytest.approx(a * a, rel=1e-13, abs=0.0)


def test_trace_distance_contractivity(rng):
    for _ in range(200):
        r1 = dm2(random_density(rng, 2))
        r2 = dm2(random_density(rng, 2))
        a = float(rng.uniform(0.05, 1.0))
        before = trace_distance(r1, r2)
        after = trace_distance(evolve_single(r1, a), evolve_single(r2, a))
        assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# evolved states stay physical
# ---------------------------------------------------------------------------

def test_evolved_states_legitimate(rng):
    for _ in range(250):
        a = float(rng.uniform(0.01, 1.0))
        m2 = evolve_single(dm2(random_density(rng, 2)), a).matrix
        m4 = evolve_pair(dm4(random_density(rng, 4)), a).matrix
        for m in (m2, m4):
            assert np.abs(m - m.conj().T).max() <= 1e-13
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-13)
            assert np.linalg.eigvalsh(m).min() >= -1e-12


# ---------------------------------------------------------------------------
# Bloch picture
# ---------------------------------------------------------------------------

def test_bloch_affine_map_structure():
    am = bloch_affine_map(1.0)
    assert np.allclose(am.m, np.eye(3), atol=1e-14)
    assert np.allclose(am.c, 0.0, atol=1e-14)
    factors = (0.3, 0.5, 0.95)
    for a in factors:
        am = bloch_affine_map(a)
        assert np.allclose(am.m, np.diag([a, a, a * a]), atol=1e-13)
        assert np.allclose(am.c, 0.0, atol=1e-13)
        assert am.det == pytest.approx(a ** 4, rel=1e-12, abs=0.0)
    # an array of factors gives the stack of the per-factor maps
    grid = np.array([factors, (0.0, 1.0, 0.7)])
    stacked = bloch_affine_map(grid)
    assert stacked.m.shape == (2, 3, 3, 3) and stacked.c.shape == (2, 3, 3)
    assert stacked.det.shape == (2, 3)
    for idx in np.ndindex(grid.shape):
        one = bloch_affine_map(float(grid[idx]))
        assert np.abs(stacked.m[idx] - one.m).max() <= 1e-15
        assert np.abs(stacked.c[idx] - one.c).max() <= 1e-15
        assert abs(stacked.det[idx] - one.det) <= 1e-15


def test_bloch_affine_map_validates_only_its_images(monkeypatch):
    # work-count guard: the six probe states are built and validated once,
    # at import, and a call evolves them as one stack, so it validates their
    # images once (six validations before, 12 before that)
    calls = []
    check = states._check_density

    def counted(m):
        calls.append(m.shape)
        return check(m)

    monkeypatch.setattr(states, "_check_density", counted)
    a = np.linspace(0.0, 1.0, 101)
    am = bloch_affine_map(a)
    assert calls == [(101, 6, 2, 2)]
    assert np.allclose(am.det, a**4, rtol=1e-12, atol=0.0)


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_pair_channel_consistency(theta, a):
    via_pair = evolve_pair(bell_like(theta), a).matrix
    via_x = evolved_x_state(theta, a).matrix
    assert np.abs(via_pair - via_x).max() <= 1e-14
