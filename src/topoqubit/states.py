"""Qubit states and the action of the dephasing channel on them.

Single-qubit states dephase by scaling off-diagonal entries with alpha(t)
and pulling populations toward 1/2 with weight alpha(t)^2.  Two independent
copies of the channel acting on a pair give the entrywise map implemented in
:func:`evolve_pair`; the family of Bell-like initial states
cos(theta/2)|00> + sin(theta/2)|11> stays of X form under it, and
:func:`evolved_x_state` writes that X state down directly.

A state is checked where it enters the package, by its public
constructor.  What this module's formulas build from checked inputs is
stored as built, through :func:`_unchecked`.

This is the package's one caller of ``numpy.linalg``.  A spectrum is taken
one diagonal block at a time (:func:`_diagonal_blocks`): blocks of size 1
and 2 in closed form, larger ones by LAPACK.

Ordering convention for the pair basis: |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DensityMatrix2",
    "DensityMatrix4",
    "XState4",
    "BlochAffineMap",
    "evolve_single",
    "evolve_pair",
    "bell_like",
    "evolved_x_state",
    "trace_distance",
    "bloch_affine_map",
]

_ATOL = 1e-12

# Members per stack where a time series is evaluated block by block: one
# stack per combination at the recipes' 2048-4096 points.  The closed-form
# measures and the QFI of X states keep O(n) temporaries.  The CSV writer
# sizes its blocks by cells (cli._CSV_BLOCK_CELLS).
_MEASURE_BLOCK = 4096

# Real matrices stay real: sigma_y alone is complex.
_ID2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULIS = (_SX, _SY, _SZ)


def _diagonal_blocks(*stacks: np.ndarray) -> list[tuple[int, ...]]:
    # The diagonal blocks shared by the stacks (..., d, d): the connected
    # components of their joint nonzero pattern over every member, as
    # ascending index tuples ordered by their first index.  An entry nonzero
    # in one member of one stack keeps its two indices in one block.  A
    # matrix of size 2 or less is one block unscanned: the qubit closed form
    # covers uncoupled members too, and the scan would cost more than it.
    d = stacks[0].shape[-1]
    if d <= 2:
        return [tuple(range(d))]
    linked = np.zeros((d, d), dtype=bool)
    for m in stacks:
        linked |= (m != 0).reshape(-1, d, d).any(axis=0)
    label = list(range(d))
    for i, j in zip(*np.nonzero(linked)):
        a, b = label[i], label[j]
        label = [a if x == b else x for x in label]
    blocks: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        blocks.setdefault(x, []).append(i)
    return [tuple(b) for b in blocks.values()]


def _block(m: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    # The diagonal block of the stack m on the indices idx: m itself when
    # idx spans it in order, a copy otherwise.
    if idx == tuple(range(m.shape[-1])):
        return m
    ix = np.array(idx)
    return m[..., ix[:, None], ix]


def _qubit_spectrum(d0, d1, off):
    # The closed-form spectrum of the Hermitian 2x2 stack
    # [[d0, off], [conj(off), d1]] with real diagonals: the ascending
    # eigenvalues mean -/+ radius as a (..., 2) array, and radius =
    # hypot((d0 - d1)/2, |off|).  No other temporary outlives the call:
    # trace_distance takes spectra of whole 4096-point qubit series.
    mean = 0.5 * (d0 + d1)
    radius = np.hypot(0.5 * (d0 - d1), np.abs(off))
    lam = np.concatenate(((mean - radius)[..., None], (mean + radius)[..., None]), axis=-1)
    return lam, radius


def _qubit_eigh(d0, d1, off):
    # Closed-form eigenpairs of the stack of _qubit_spectrum: the ascending
    # eigenvalues, the rotation (cos 2phi, sin 2phi) = ((d0 - d1)/2, |off|)
    # / radius and the coupling's phase off/|off|.  The eigenvectors are
    # (-phase sin phi, cos phi) and (phase cos phi, sin phi), phi in
    # [0, pi/2].  A degenerate member (radius 0) takes the identity frame
    # (cos 2phi = 1) and an uncoupled one (off = 0) the phase 1.  The
    # phase's parts are real quotients, so a real coupling stored as complex
    # gives the phase +/-1 exactly, as a real one does.
    lam, radius = _qubit_spectrum(d0, d1, off)
    mod = np.abs(off)
    turned = radius > 0.0
    cos2 = np.divide(0.5 * (d0 - d1), radius, out=np.ones_like(radius), where=turned)
    sin2 = np.divide(mod, radius, out=np.zeros_like(radius), where=turned)
    coupled = mod > 0.0
    phase = np.divide(off.real, mod, out=np.ones_like(mod), where=coupled)
    if np.iscomplexobj(off):
        phase = phase + 1j * np.divide(off.imag, mod, out=np.zeros_like(mod), where=coupled)
    return lam, cos2, sin2, phase


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ascending eigenvalues and eigenvectors of every Hermitian matrix of the
    # stack m, by LAPACK: for blocks larger than a qubit.
    return np.linalg.eigh(m)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues of every Hermitian matrix of the stack m
    # (..., d, d), one diagonal block at a time (_diagonal_blocks): a 1x1
    # block is its diagonal entry, a 2x2 block is solved in closed form
    # (_qubit_spectrum), a larger one by LAPACK.
    parts = []
    for idx in _diagonal_blocks(m):
        if len(idx) == 1:
            parts.append(m[..., idx[0], idx[0]].real[..., None])
        elif len(idx) == 2:
            i, j = idx
            parts.append(_qubit_spectrum(m[..., i, i].real, m[..., j, j].real, m[..., i, j])[0])
        else:
            parts.append(np.linalg.eigvalsh(_block(m, idx)))
    if len(parts) == 1:
        return parts[0]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def _check_density(m: np.ndarray) -> None:
    # Raise unless every matrix of the stack m (..., d, d) is finite,
    # Hermitian, of unit trace and positive semidefinite.
    if not np.isfinite(m).all():
        raise DomainError("density matrix entries must be finite")
    herm_defect = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
    if herm_defect > _ATOL:
        raise DomainError(f"matrix is not Hermitian (defect {herm_defect:.3e} > {_ATOL})")
    tr_defect = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if tr_defect > _ATOL:
        raise DomainError(f"trace deviates from 1 by {tr_defect:.3e} > {_ATOL}")
    lam_min = float(_eigvalsh(m).min())
    if lam_min < -_ATOL:
        raise DomainError(f"matrix has negative eigenvalue {lam_min:.3e} < -{_ATOL}")


def _entry_dtype(x) -> type:
    # complex128 for complex entries, float64 for real (or integer) ones.
    return np.complex128 if np.iscomplexobj(x) else np.float64


def _validated_density(matrix: np.ndarray, dim: int) -> np.ndarray:
    m = np.array(matrix, dtype=_entry_dtype(matrix))
    if m.shape[-2:] != (dim, dim):
        raise DomainError(f"expected a (..., {dim}, {dim}) array, got shape {m.shape}")
    _check_density(m)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix2:
    """Validated single-qubit density matrix (Hermitian, unit trace, PSD), or
    a stack of them, shape ``(..., 2, 2)``, every member validated.  The
    stored copy is float64 for real input and complex128 for complex input,
    whatever the entries' values."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated_density(self.matrix, 2))


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """Validated two-qubit density matrix (Hermitian, unit trace, PSD), or a
    stack of them, shape ``(..., 4, 4)``, every member validated.  The
    stored copy is float64 for real input and complex128 for complex input,
    whatever the entries' values."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated_density(self.matrix, 4))


def _blocks(n: int, size: int) -> Iterator[slice]:
    # Consecutive slices of range(n) with at most ``size`` members each.
    return (slice(lo, lo + size) for lo in range(0, n, size))


def _member(bad: np.ndarray) -> str:
    # " at member i, j" naming the first True entry of a stacked mask, or ""
    # for a single state.
    if bad.ndim == 0:
        return ""
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return " at member " + ", ".join(str(int(i)) for i in idx)


@dataclass(frozen=True, eq=False)
class XState4:
    """Two-qubit X-form state: diagonal plus the two anti-diagonal coherences.

    Parameters are the populations rho11..rho44 (basis |00>,|01>,|10>,|11>)
    and the coherences rho14 = <00|rho|11>, rho23 = <01|rho|10>.  ``det14``
    and ``det23`` are the determinants of the two 2x2 blocks,
    rho11 rho44 - |rho14|^2 and rho22 rho33 - |rho23|^2.  ``None`` computes
    them from the entries (clipped at 0); a caller that knows them exactly
    passes them, because the difference of rounded entries can be off by
    ~1e-17 and its square root, which the LQU takes, by ~3e-9.  Each
    parameter may be a number or an array; all broadcast to one stack shape,
    which is () for a single state.  The fields are stored as read-only arrays
    of that shape, every member validated: populations and determinants as
    float64, each coherence as float64 when given real and complex128 when
    given complex, so ``matrix`` is real exactly when both coherences are.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0
    rho23: complex = 0.0
    det14: float | None = None
    det23: float | None = None

    def __post_init__(self) -> None:
        names = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")
        names += tuple(n for n in ("det14", "det23") if getattr(self, n) is not None)
        values = [
            np.array(v, dtype=_entry_dtype(v) if i in (4, 5) else np.float64)
            for i, v in enumerate(getattr(self, n) for n in names)
        ]
        shape = np.broadcast_shapes(*(v.shape for v in values))
        for name, v in zip(names, values):
            v.setflags(write=False)
            object.__setattr__(self, name, np.broadcast_to(v, shape))
        pops = (self.rho11, self.rho22, self.rho33, self.rho44)
        for name, p in zip(names, pops):
            bad = ~(np.isfinite(p) & (p >= -_ATOL))
            if bad.any():
                raise DomainError(
                    f"population {name}={float(p[bad].flat[0])} must be finite "
                    f"and >= 0{_member(bad)}"
                )
        total = pops[0] + pops[1] + pops[2] + pops[3]
        bad = ~(np.abs(total - 1.0) <= _ATOL)
        if bad.any():
            raise DomainError(
                f"populations sum to {float(total[bad].flat[0])!r}, expected 1{_member(bad)}"
            )
        r14 = np.abs(self.rho14)
        r23 = np.abs(self.rho23)
        bad = ~(r14 * r14 <= self.rho11 * self.rho44 + _ATOL)
        if bad.any():
            raise DomainError(
                f"|rho14|^2 exceeds rho11*rho44: not positive semidefinite{_member(bad)}"
            )
        bad = ~(r23 * r23 <= self.rho22 * self.rho33 + _ATOL)
        if bad.any():
            raise DomainError(
                f"|rho23|^2 exceeds rho22*rho33: not positive semidefinite{_member(bad)}"
            )
        for name, (p, q, r) in (
            ("det14", (self.rho11, self.rho44, r14)),
            ("det23", (self.rho22, self.rho33, r23)),
        ):
            entries = p * q - r * r
            det = getattr(self, name)
            if det is None:
                det = np.maximum(entries, 0.0)
                det.setflags(write=False)
                object.__setattr__(self, name, det)
                continue
            bad = ~((det >= 0.0) & (np.abs(det - entries) <= _ATOL))
            if bad.any():
                raise DomainError(
                    f"{name}={float(det[bad].flat[0])!r} must be >= 0 and within {_ATOL} "
                    f"of its block's entries, which give {float(entries[bad].flat[0])!r}"
                    f"{_member(bad)}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        """Stack shape; () for a single state."""
        return self.rho11.shape

    @property
    def matrix(self) -> np.ndarray:
        """The density matrices, shape ``self.shape + (4, 4)``; float64 when
        both coherences are real, complex128 otherwise."""
        m = np.zeros(self.shape + (4, 4), dtype=np.result_type(self.rho14, self.rho23))
        m[..., 0, 0] = self.rho11
        m[..., 1, 1] = self.rho22
        m[..., 2, 2] = self.rho33
        m[..., 3, 3] = self.rho44
        m[..., 0, 3] = self.rho14
        m[..., 3, 0] = np.conj(self.rho14)
        m[..., 1, 2] = self.rho23
        m[..., 2, 1] = np.conj(self.rho23)
        m.setflags(write=False)
        return m


def _unchecked(cls: type, **arrays):
    # The instance of the state class cls with the given fields, stored as
    # read-only arrays but not checked: for what this module's formulas
    # build from checked inputs, with the dtypes and shapes the checking
    # constructor would store.
    state = object.__new__(cls)
    for name, v in arrays.items():
        v = np.asarray(v)
        v.setflags(write=False)
        object.__setattr__(state, name, v)
    return state


@dataclass(frozen=True, eq=False)
class BlochAffineMap:
    """Affine action r -> M r + c of a single-qubit channel on Bloch vectors,
    or a stack of them: ``m`` of shape ``(..., 3, 3)`` and ``c`` of shape
    ``(..., 3)`` with one stack shape; ``c`` defaults to zeros.

    For the dephasing channel the map is unital (c = 0) and
    M = diag(alpha, alpha, alpha^2); the generic assembly in
    :func:`bloch_affine_map` does not assume that shape.
    """

    m: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape[-2:] != (3, 3):
            raise DomainError(f"BlochAffineMap needs (..., 3, 3) matrices, got shape {m.shape}")
        c = np.zeros(m.shape[:-1]) if self.c is None else np.asarray(self.c, dtype=np.float64)
        if c.shape != m.shape[:-1]:
            raise DomainError(
                f"BlochAffineMap offsets of shape {c.shape} do not match matrices of shape {m.shape}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", c)

    @property
    def det(self):
        """det M: a float for one map, an array of the stack shape for a stack."""
        d = np.linalg.det(self.m)
        return float(d) if d.ndim == 0 else d


def _check_theta(theta: float) -> None:
    # The Bell-like family's angle lies in [0, pi]; NaN does not.
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta}")


def _coherence_factors(a) -> np.ndarray:
    # The factor or array of factors ``a`` as float64, each in [0, 1].
    a = np.asarray(a, dtype=np.float64)
    ok = (0.0 <= a) & (a <= 1.0)
    if not ok.all():
        raise DomainError(f"coherence factor must lie in [0, 1], got {a[~ok].flat[0]}")
    return a


def _one_state(rho, kinds: tuple[type, ...]) -> np.ndarray:
    # The matrix of a single state of one of the checked classes ``kinds``;
    # any other object or a stack is an error, only ``a`` may vary.
    if not isinstance(rho, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"expected a {names}, got {type(rho).__name__}")
    r = rho.matrix
    if r.ndim != 2:
        raise DomainError(f"expected one initial state, got a stack of shape {r.shape[:-2]}")
    return r


def evolve_single(rho0: DensityMatrix2, a) -> DensityMatrix2:
    """Apply the single-qubit dephasing channel with coherence factor ``a``.

    Populations relax toward 1/2 with weight a^2, the coherence scales by a:
        rho'_00 = (1 + (2 rho_00 - 1) a^2) / 2,   rho'_01 = a rho_01.
    ``a`` lies in [0, 1]; a = 0 gives the fully dephased state I/2.  ``a``
    may be an array of factors; the result is then the stack of images of
    the one state ``rho0``, shape ``a.shape + (2, 2)``.  ``rho0`` must be a
    :class:`DensityMatrix2`, which was checked when built; the result has
    the dtype of ``rho0.matrix`` (a real state stays real) and is stored as
    the formula gives it, not checked again.
    """
    return _dephased(_one_state(rho0, (DensityMatrix2,)), a)


def _dephased(r: np.ndarray, a) -> DensityMatrix2:
    # The images of the checked states r (..., 2, 2) under every factor of a,
    # shape a.shape + r.shape[:-2] + (2, 2) and of r's dtype, stored
    # unchecked: the channel maps states to states.
    a = _coherence_factors(a)
    out = np.empty(a.shape + r.shape, dtype=r.dtype)
    a = a.reshape(a.shape + (1,) * (r.ndim - 2))
    a2 = a * a
    out[..., 0, 0] = 0.5 * (1.0 + (2.0 * r[..., 0, 0].real - 1.0) * a2)
    out[..., 1, 1] = 0.5 * (1.0 + (2.0 * r[..., 1, 1].real - 1.0) * a2)
    out[..., 0, 1] = a * r[..., 0, 1]
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    return _unchecked(DensityMatrix2, matrix=out)


def evolve_pair(rho0: DensityMatrix4, a: float) -> DensityMatrix4:
    """Apply two independent copies of the dephasing channel to one pair
    state with one coherence factor ``a`` in [0, 1].  ``rho0`` must be a
    :class:`DensityMatrix4` or an :class:`XState4`, each checked when built;
    the result has the dtype of ``rho0.matrix`` (a real state stays real)
    and is stored as the formula gives it, not checked again."""
    r = _one_state(rho0, (DensityMatrix4, XState4))
    a = _coherence_factors(a)
    if a.ndim:
        raise DomainError(f"expected one coherence factor, got an array of shape {a.shape}")
    a2 = a * a
    ap = 0.5 * (1.0 + a2)
    am = 0.5 * (1.0 - a2)
    w = np.array([[ap, am], [am, ap]])
    mix = np.kron(w, w)
    diag = mix @ np.real(np.diag(r))
    out = np.zeros((4, 4), dtype=r.dtype)
    out[np.arange(4), np.arange(4)] = diag
    # Single-qubit coherences mix in pairs under the two-copy channel.
    out[0, 1] = a * (ap * r[0, 1] + am * r[2, 3])
    out[2, 3] = a * (am * r[0, 1] + ap * r[2, 3])
    out[0, 2] = a * (ap * r[0, 2] + am * r[1, 3])
    out[1, 3] = a * (am * r[0, 2] + ap * r[1, 3])
    # Two-qubit coherences just pick up a factor a^2.
    out[0, 3] = a2 * r[0, 3]
    out[1, 2] = a2 * r[1, 2]
    for i in range(4):
        for j in range(i + 1, 4):
            out[j, i] = np.conj(out[i, j])
    return _unchecked(DensityMatrix4, matrix=out)


def bell_like(theta: float) -> DensityMatrix4:
    """Pure state cos(theta/2)|00> + sin(theta/2)|11> for theta in [0, pi],
    as a real (float64) density matrix."""
    _check_theta(theta)
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    psi = np.array([c, 0.0, 0.0, s])
    return _unchecked(DensityMatrix4, matrix=np.outer(psi, psi))


def evolved_x_state(theta: float, a) -> XState4:
    """The Bell-like state after both qubits dephase with coherence factor ``a``.

    ``a`` may be an array of factors; the result is then the stack of states,
    one per factor.  Each factor lies in [0, 1], as for :func:`evolve_single`;
    a = 0 (fully dephased) keeps the long-time tails of strongly coupled
    channels representable.  Both coherences are real, so the state's
    ``matrix`` is float64.
    """
    _check_theta(theta)
    a = _coherence_factors(a)
    a2 = a * a
    a4 = a2 * a2
    c = math.cos(theta)
    quarter = 0.25
    rho11 = quarter * (1.0 + a4) + 0.5 * a2 * c
    rho44 = quarter * (1.0 + a4) - 0.5 * a2 * c
    rho22 = quarter * (1.0 - a4)
    rho14 = 0.5 * a2 * math.sin(theta)
    # Both block determinants equal rho22^2 = ((1 - a^4)/4)^2 exactly.
    det = rho22 * rho22
    # Valid for every theta and factor that passed the checks above.
    return _unchecked(
        XState4, rho11=rho11, rho22=rho22, rho33=rho22, rho44=rho44,
        rho14=rho14, rho23=np.zeros(np.shape(a)), det14=det, det23=det,
    )


def trace_distance(rho, sigma):
    """Trace distance (1/2)||rho - sigma||_1 between two states.

    Accepts any objects exposing a ``.matrix`` square array of equal shape.
    Stacks ``(..., d, d)`` give one distance per member, an array of shape
    ``(...)``; two single states give a float.  The spectrum of the
    difference is taken one diagonal block at a time: blocks of size 1 and 2
    in closed form, larger ones by LAPACK.  Two real states are compared in
    real arithmetic.
    """
    m1 = np.asarray(rho.matrix)
    m2 = np.asarray(sigma.matrix)
    if m1.shape != m2.shape:
        raise DomainError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    dist = 0.5 * np.abs(_eigvalsh(m1 - m2)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


# The probe states (I + sigma_j)/2, (I - sigma_j)/2 for j = x, y, z, in that
# order, as one stack from whose images the Bloch map is read off, checked
# once here, and the stacked Paulis.
_PROBES = DensityMatrix2(np.stack([0.5 * m for sj in PAULIS for m in (_ID2 + sj, _ID2 - sj)]))
_PAULI_STACK = np.stack(PAULIS)


def bloch_affine_map(a) -> BlochAffineMap:
    """Assemble the Bloch-sphere affine map of the dephasing channel.

    Built generically from the channel action on physical states: the image
    of sigma_j is reconstructed as E((I+sigma_j)/2) - E((I-sigma_j)/2), the
    offset from E(I).  No diagonal form is assumed.  ``a`` may be an array of
    factors; the result is then the stack of maps, ``m`` of shape
    ``a.shape + (3, 3)``.  The six probes, checked once at import, are
    evolved by the channel formula of :func:`evolve_single` as one stack,
    whose images are not checked again.
    """
    images = _dephased(_PROBES.matrix, a).matrix
    plus, minus = images[..., 0::2, :, :], images[..., 1::2, :, :]
    # m_ij = tr(sigma_i E(sigma_j)) / 2 and c_i = tr(sigma_i E(I)) / 2, with
    # E(I) from the z probes.
    eye_image = plus[..., 2, :, :] + minus[..., 2, :, :]
    m = 0.5 * np.einsum("ikl,...jlk->...ij", _PAULI_STACK, plus - minus).real
    c = 0.5 * np.einsum("ikl,...lk->...i", _PAULI_STACK, eye_image).real
    return BlochAffineMap(m, c)
