"""Special-function layer against 40-digit references and identities."""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import topoqubit
from topoqubit import (
    ConvergenceError,
    DomainError,
    ParameterError,
    PoleError,
    dawson,
    dephasing,
    dhyp1f1_dz,
    dhyp2f2_11_32_2_dz,
    gamma,
    hyp1f1,
    hyp2f2_11_32_2,
    magnetometry,
    nonmarkov,
    specfun,
)
from topoqubit.specfun import (
    _LGAMMA_HALF_TAYLOR,
    _OVERFLOW_GUARD,
    _RESCALE_LIMIT,
    _SERIES_BLOCK,
    _asymptotic,
    _asymptotic_array,
    _block_len,
    _f20_ratio,
    _hyp1f1_array,
    _hyp1f1_asymptotic_array,
    _kernel_array,
    _kernel_tail_ratio,
    _kmin,
    _kummer_ratio,
    _series,
    _series_1f1,
    _series_1f1_array,
)
from conftest import (
    mp_dawson,
    mp_dhyp2f2,
    mp_gamma,
    mp_hyp1f1,
    mp_hyp2f2,
    richardson_derivative,
)

# values frozen from mpmath at 40 digits
GAMMA_CASES = [
    (0.5, 1.772453850905516027298167483341145182798),
    (-0.25, -4.901666809860710580516393213451562107405),
    (1.0, 1.0),
    (6.0, 120.0),
]

HYP1F1_CASES = [
    (1.0, 0.5, -25.0, -0.0213407442427683543855100704927174628858),
    (1.0, 0.5, -0.25, 0.5755636164979777040659576475103304289036),
    (-0.25, 0.5, -4.0, 2.009006307940274574779805650988831940578),
    (0.5, 1.5, -9.0, 0.2954024494198404112981615259706151931899),
    (2.0, 1.5, -100.0, -2.577951660535392584677761411908458467217e-05),
]

HYP2F2_CASES = [
    (-1.0, 0.7394416300990793005006488964281928880339),
    (-400.0, 0.009942152774436387584333164882621772431065),
    (-2500.0, 0.001957471195367534707217470030840954145712),
]

DAWSON_CASES = [
    (0.5, 0.4244363835020222959340423524896695710964),
    (2.0, 0.3013403889237919660346644392864226952119),
    (5.0, 0.1021340744242768354385510070492717462886),
]


@pytest.mark.parametrize("x, want", GAMMA_CASES)
def test_gamma_frozen(x, want):
    assert gamma(x) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 1e-13])
def test_gamma_pole(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_overflow_is_domain_error():
    assert gamma(171.5) == pytest.approx(mp_gamma(171.5), rel=1e-13, abs=0.0)
    with pytest.raises(DomainError):
        gamma(171.7)


@pytest.mark.parametrize("a, b, z, want", HYP1F1_CASES)
def test_hyp1f1_frozen(a, b, z, want):
    assert hyp1f1(a, b, z) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (-0.3, 1.5), (3.0, 0.5)])
def test_hyp1f1_at_zero(a, b):
    assert hyp1f1(a, b, 0.0) == 1.0


def test_hyp1f1_oracle_grid():
    """200 points spanning the parameter range the bath integral visits."""
    qs = [0.0, 0.4, 0.8, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0]
    tg = [0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0]
    checked = 0
    worst = 0.0
    for q in qs:
        a = (q - 1.0) / 2.0
        for ab in ((a, 0.5), (a + 1.0, 1.5)):
            for x in tg:
                z = -x * x / 4.0
                got = hyp1f1(ab[0], ab[1], z)
                want = mp_hyp1f1(ab[0], ab[1], z)
                if want == 0.0:
                    assert abs(got) < 1e-300
                else:
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                checked += 1
    assert checked == 200
    assert worst <= 1e-10


def test_hyp1f1_kummer_symmetry():
    # exp(-z) M(a, b, z) must equal M(b - a, b, -z)
    for a, b, z in [(0.5, 1.5, 3.0), (1.0, 0.5, 8.0), (-0.25, 0.5, 2.0)]:
        lhs = math.exp(-z) * hyp1f1(a, b, z)
        rhs = hyp1f1(b - a, b, -z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_hyp1f1_deep_underflow_is_zero():
    # around z = -4e4 the transformed series would need exp(-z) overflow
    # handling; the result itself underflows cleanly to zero
    val = hyp1f1(1.0, 0.5, -1.0e4)
    want = mp_hyp1f1(1.0, 0.5, -1.0e4)
    assert val == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("a, b, z", [(0.5, 0.5, -3.0), (1.5, 1.5, -40.0), (2.0, 0.5, 6.0)])
def test_dhyp1f1_matches_finite_difference(a, b, z):
    got = dhyp1f1_dz(a, b, z)
    want = richardson_derivative(lambda x: hyp1f1(a, b, x), z, h=1e-3)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("b", [0.0, -1.0, -5.0])
def test_hyp1f1_parameter_pole(b):
    with pytest.raises(ParameterError):
        hyp1f1(1.0, b, -1.0)


def test_hyp1f1_budget_exhaustion(monkeypatch):
    # below the large-u switch the Kummer series needs ~70 terms here
    monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 0.5, -50.0)
    # above it the expansion needs 8 terms and the series ~1000: 5 fit neither
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 0.5, -900.0)


@pytest.mark.parametrize(
    "a, b, name",
    [(math.nan, 1.5, "a"), (math.inf, 1.5, "a"), (-math.inf, 0.5, "a"), (1.0, math.nan, "b")],
)
def test_hyp1f1_non_finite_parameter_fails_before_summing(monkeypatch, a, b, name):
    # a NaN or infinite a, or a NaN b, used to sum all 10000 NaN terms and
    # then report a tolerance it could not reach; b = +inf is the limit M = 1
    assert hyp1f1(1.0, math.inf, -1.0) == 1.0
    calls = []
    monkeypatch.setattr(specfun, "_series_1f1", lambda *args: calls.append(args))
    for f in (hyp1f1, dhyp1f1_dz):
        for z in (-0.5, -30.0, 0.5):
            with pytest.raises(ParameterError, match=f"^{name}="):
                f(a, b, z)
    assert calls == []


def _generic_series_1f1(a, b, z):
    # The ratio-series loop with the Kummer ratio: the reference for the
    # scalar 1F1 series, which writes both into one loop.
    return _series(
        _kummer_ratio(a, b, z), 1.0, _kmin(a, b, 1.0, abs(z)),
        lambda: f"1F1 series for (a={a}, b={b}, z={z})",
    )


def test_inlined_1f1_series_equals_the_generic_loop(monkeypatch):
    # the same (total, n2) bits over a grid that takes in terminating and
    # near-terminating series, both signs of z, and z ~ 700, where the terms
    # pass the rescale limit
    rescaled = 0
    for a in (-6.0, -2.5, 0.0, 0.5, 1.4999999999999996, 2.0, 3.7, 40.25):
        for b in (0.5, 1.5, 2.0000000000000004, 7.25):
            for z in (-1.0, -0.25, 0.5, 1.0, 6.0, 59.9, 300.0, 699.5, 705.0):
                got = _series_1f1(a, b, z)
                want = _generic_series_1f1(a, b, z)
                assert got[1] == want[1] and got[0] == want[0], (a, b, z)
                assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
                rescaled += got[1] != 0
    assert rescaled > 0
    # the same error once the term budget runs out
    monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
    with pytest.raises(ConvergenceError) as want:
        _generic_series_1f1(1.0, 0.5, 50.0)
    with pytest.raises(ConvergenceError) as got:
        _series_1f1(1.0, 0.5, 50.0)
    assert str(got.value) == str(want.value)
    assert str(got.value) == (
        "1F1 series for (a=1.0, b=0.5, z=50.0) did not reach rel_tol=1e-16 within 10 terms"
    )


@pytest.mark.parametrize("z, want", HYP2F2_CASES)
def test_hyp2f2_frozen(z, want):
    assert hyp2f2_11_32_2(z) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hyp2f2_oracle_sweep():
    # crosses the kernel's branch switches at u = -z = 1 (direct to Kummer)
    # and u = 60 (Kummer to asymptotic)
    for z in [-0.01, -0.5, -1.0, -5.0, -7.9, -8.1, -20.0, -50.0, -400.0, -2500.0]:
        assert hyp2f2_11_32_2(z) == pytest.approx(mp_hyp2f2(z), rel=1e-10, abs=0.0)
    big = hyp2f2_11_32_2(-1.0e4)
    assert big == pytest.approx(mp_hyp2f2(-1.0e4), rel=1e-10, abs=0.0)


def test_hyp2f2_at_zero_and_domain():
    assert hyp2f2_11_32_2(0.0) == 1.0
    with pytest.raises(DomainError):
        hyp2f2_11_32_2(0.1)


@pytest.mark.parametrize("z", [-0.3, -3.0, -7.5, -30.0, -300.0])
def test_dhyp2f2_matches_reference(z):
    import mpmath

    got = dhyp2f2_11_32_2_dz(z)
    want = float(mpmath.diff(
        lambda x: mpmath.hyper([1, 1], [mpmath.mpf(3) / 2, 2], x), z))
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_dhyp2f2_at_zero():
    # leading series coefficient
    assert dhyp2f2_11_32_2_dz(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x, want", DAWSON_CASES)
def test_dawson_frozen(x, want):
    assert dawson(x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_dawson_sweep_and_oddness():
    for x in [0.01, 0.2, 0.49, 0.51, 1.0, 3.7, 10.0, 25.0, 50.0]:
        assert dawson(x) == pytest.approx(mp_dawson(x), rel=1e-10, abs=0.0)
        assert dawson(-x) == -dawson(x)
    assert dawson(0.0) == 0.0


_MODULES = [
    importlib.import_module(f"topoqubit.{m.name}") for m in pkgutil.iter_modules(topoqubit.__path__)
]
_ACCURACY_OPTIONS = {"opts", "options", "rel_tol", "max_terms"}


@pytest.mark.parametrize("module", [topoqubit, *_MODULES], ids=lambda m: m.__name__)
def test_accuracy_policy_lives_in_specfun(module):
    # one series tolerance and budget, specfun's private constants: no
    # function or method takes an accuracy option, no module binds an
    # option object, and no module but specfun holds the constants
    assert {specfun, dephasing, magnetometry, nonmarkov} <= set(_MODULES)
    fns = [f for f in vars(module).values() if inspect.isfunction(f)]
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            fns += [f for f in vars(cls).values() if inspect.isfunction(f)]
    for fn in fns:
        if fn.__module__ == module.__name__:
            params = set(inspect.signature(fn).parameters)
            assert not params & _ACCURACY_OPTIONS, fn.__qualname__
    for name in ("EvalOptions", "DEFAULT_OPTIONS", "_FULL_PRECISION"):
        assert not hasattr(module, name), name
    assert hasattr(module, "_REL_TOL") == (module is specfun)
    assert hasattr(module, "_MAX_TERMS") == (module is specfun)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=0.05, max_value=40.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=-2.5, max_value=2.5),
    st.sampled_from([0.5, 1.5]),
    st.floats(min_value=-200.0, max_value=-0.01),
)
@example(1.4999999999999996, 0.5, -22.0)
def test_hyp1f1_against_reference(a, b, z):
    got = hyp1f1(a, b, z)
    want = mp_hyp1f1(a, b, z)
    if abs(want) < 1e-250:
        assert abs(got) < 1e-240
    else:
        assert got == pytest.approx(want, rel=5e-10, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-2000.0, max_value=-0.001))
def test_hyp2f2_against_reference(z):
    assert hyp2f2_11_32_2(z) == pytest.approx(mp_hyp2f2(z), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# large-u expansions (u = -z >= 60) against 40-digit references
# ---------------------------------------------------------------------------

LARGE_U = [59.9, 60.0, 80.0, 400.0, 2500.0, 6400.0, 1e6, 2.5e13]
KERNEL_Q = [0.0, 0.5, 0.95, 1.5, 2.05, 3.0, 3.9, 6.3, 9.0, 12.0]


def _large_u_tol(u: float) -> float:
    # The Kummer series still serves u < 60, and u = 60 wherever the
    # expansion's terms grow before reaching double precision (Q = 9); it
    # is good to about u ulps there.  Everywhere else the expansion serves.
    return 1e-13 if u < 80.0 else 1e-14


@pytest.mark.parametrize("q", KERNEL_Q)
def test_hyp1f1_large_u_oracle(q):
    """Both kernel parameter pairs, scalar and array, across the switch."""
    a = (q - 1.0) / 2.0
    z = -np.array(LARGE_U)
    for ab in ((a, 0.5), (a + 1.0, 1.5)):
        arr = _hyp1f1_array(ab[0], ab[1], z)
        for u, got_arr in zip(LARGE_U, arr):
            want = mp_hyp1f1(ab[0], ab[1], -u)
            for got in (hyp1f1(ab[0], ab[1], -u), got_arr):
                if want == 0.0:  # even Q: e^-u times a polynomial underflows
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, rel=_large_u_tol(u), abs=0.0), (ab, u)


def test_hyp2f2_large_u_oracle():
    """The Q = 1 kernel: 2F2 and its derivative, scalar and through the
    array kernel, 2F2(-u) = K(0, u)/(2u) and
    d2F2/dz(-u) = K(0, u)/(2u^2) - M(1; 3/2; -u)/u."""
    u = np.array(LARGE_U)
    k_arr = _kernel_array(0.0, u)
    f_arr = k_arr / (2.0 * u)
    df_arr = k_arr / (2.0 * u * u) - _hyp1f1_array(1.0, 1.5, -u) / u
    for u, fa, dfa in zip(LARGE_U, f_arr, df_arr):
        want, dwant = mp_hyp2f2(-u), mp_dhyp2f2(-u)
        for got in (hyp2f2_11_32_2(-u), fa):
            assert got == pytest.approx(want, rel=_large_u_tol(u), abs=0.0), u
        for got in (dhyp2f2_11_32_2_dz(-u), dfa):
            assert got == pytest.approx(dwant, rel=_large_u_tol(u), abs=0.0), u


def test_hyp1f1_large_q_large_u_is_finite():
    # Q = 121.3 over t gamma0 <= 1000: e^-u and u^(a-b) leave the double
    # range on their own, u^-a underflows, the result does not
    u = 2.5e5
    a = (121.3 - 1.0) / 2.0
    for ab in ((a, 0.5), (a + 1.0, 1.5)):
        want = mp_hyp1f1(ab[0], ab[1], -u)
        got_arr = _hyp1f1_array(ab[0], ab[1], np.array([-u]))[0]
        for got in (hyp1f1(ab[0], ab[1], -u), got_arr):
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hyp1f1_large_u_needs_few_terms(monkeypatch):
    # z = -900 needs ~1000 Kummer-series terms but 8 expansion terms
    monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
    got = hyp1f1(1.0, 0.5, -900.0)
    assert got == pytest.approx(mp_hyp1f1(1.0, 0.5, -900.0), rel=1e-14, abs=0.0)


def test_dawson_large_argument():
    # the array route against the scalar dawson: D(x) = x M(1; 3/2; -x^2)
    xs = [7.7, 7.8, 50.0, 1e3, 1e5, 5e6]
    x = np.array(xs)
    arr = x * _hyp1f1_array(1.0, 1.5, -x * x)
    for x, got_arr in zip(xs, arr):
        for got in (dawson(x), got_arr):
            assert got == pytest.approx(mp_dawson(x), rel=1e-14, abs=0.0), x


# ---------------------------------------------------------------------------
# array loops against the scalar reference: seams, rescaling, bad arguments
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=0.0, max_value=12.0), st.floats(min_value=0.5, max_value=1.5))
def test_hyp1f1_array_matches_scalar_across_kummer_seam(q, u):
    """z = -1 splits the direct series from the Kummer-transformed one."""
    a = (q - 1.0) / 2.0
    us = np.array([u, 0.9, 1.0 - 1e-12, 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.1])
    for ab in ((a, 0.5), (a + 1.0, 1.5)):
        arr = _hyp1f1_array(ab[0], ab[1], -us)
        for x, got in zip(us, arr):
            assert got == pytest.approx(hyp1f1(ab[0], ab[1], -x), rel=1e-12, abs=0.0), (ab, x)


def test_hyp1f1_array_rescale_branch_matches_scalar():
    # At large Q the expansion's terms grow before double precision up to
    # u ~ 1000, so the Kummer series serves there; its terms pass 1e250 and
    # the array loop rescales those elements by 2**-1024.
    u = np.linspace(100.0, 3000.0, 30)
    for q, n_rescaled in ((60.5, 4), (80.3, 17)):
        a = (q - 1.0) / 2.0
        count = 0
        for ab in ((a, 0.5), (a + 1.0, 1.5)):
            _, ok = _hyp1f1_asymptotic_array(ab[0], ab[1], u)
            _, n2 = _series_1f1_array(ab[1] - ab[0], ab[1], u[~ok])
            count += int(np.count_nonzero(n2))
            arr = _hyp1f1_array(ab[0], ab[1], -u)
            for x, got in zip(u, arr):
                assert got == pytest.approx(hyp1f1(ab[0], ab[1], -x), rel=1e-12, abs=0.0), (q, x)
        assert count == n_rescaled


@pytest.mark.parametrize("bad", [-math.inf, math.nan, math.inf])
def test_non_finite_argument_fails_at_once(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="no series"):
            hyp1f1(1.0, 0.5, bad)
        if bad <= 0.0 or math.isnan(bad):
            for f in (hyp2f2_11_32_2, dhyp2f2_11_32_2_dz):
                with pytest.raises(ConvergenceError, match="no series"):
                    f(bad)
            z = np.array([-0.5, -30.0, bad])
            for f in (
                lambda z: _hyp1f1_array(1.0, 0.5, z),
                lambda z: _kernel_array(0.0, -z),
            ):
                with pytest.raises(ConvergenceError, match="non-finite"):
                    f(z)


def test_block_len_keeps_accumulators_finite():
    # m terms growing by g each take _RESCALE_LIMIT to at most
    # _RESCALE_LIMIT (m + 1) g^m, which must stay below the guard
    assert _block_len(0.5) == _block_len(1.0) == _SERIES_BLOCK
    assert _block_len(math.inf) == _block_len(1e60) == 1
    for g in (8.0, 1e5, 3e7, 1e10, 1e20):
        m = _block_len(g)
        assert 1 <= m <= _SERIES_BLOCK
        assert _RESCALE_LIMIT * (m + 1) * g**m < _OVERFLOW_GUARD or m == 1
        assert m == _SERIES_BLOCK or _RESCALE_LIMIT * (m + 2) * g ** (m + 1) >= _OVERFLOW_GUARD


def test_asymptotic_array_assigns_branches_like_scalar():
    # Near the switch the expansion's smallest term sits close to the 1e-17
    # stop: some elements reach it a term or two before their terms grow
    # (Q = 9.1 at u = 67.9), which a once-per-block test alone would miss.
    # At large Q the terms grow at once up to u ~ 1000.  Every flag and
    # every sum is the scalar loop's, bit for bit: past the scalar stop each
    # term is below half an ulp of the sum.
    u = np.concatenate([np.linspace(60.0, 100.0, 401), np.geomspace(100.0, 1e6, 200)])
    for q in (0.0, 1.2, 3.0, 5.3, 9.1, 12.3, 20.5, 60.5, 120.3, 170.0):
        a = (q - 1.0) / 2.0
        families = [
            (partial(_f20_ratio, p, r), sign / u, np.ones_like(u))
            for p, r, sign in ((a, a + 0.5, 1.0), (0.5 - a, 1.0 - a, -1.0),
                               (a + 1.0, a + 0.5, 1.0), (0.5 - a, -a, -1.0))
        ]
        families.append((partial(_kernel_tail_ratio, a), 1.0 / u, (a + 0.5) / u))
        for make_ratio, arg, first in families:
            sums, ok = _asymptotic_array(make_ratio, arg, first)
            for w, f, s, o in zip(arg, first, sums, ok):
                want = _asymptotic(make_ratio(w), f)
                assert o == (want is not None), (q, make_ratio, w)
                assert s == (want if o else f), (q, make_ratio, w)


def test_array_budget_is_read_from_the_module_default(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
    # the Kummer-transformed series needs ~70 terms at z = -50
    with pytest.raises(ConvergenceError) as got:
        _hyp1f1_array(1.0, 0.5, np.array([-50.0]))
    assert str(got.value) == (
        "vectorized 1F1 series (a=-0.5, b=0.5); worst |z|=50 did not converge within 10 terms"
    )
    # K(0, u) at u = 60 has no 1/a form to fall back on once its expansion
    # runs out of terms
    monkeypatch.setattr(specfun, "_MAX_TERMS", 2)
    with pytest.raises(ConvergenceError) as got:
        _kernel_array(0.0, np.array([60.0]))
    assert str(got.value) == "vectorized kernel series (a=0.0) did not converge within 2 terms"
    with pytest.raises(ConvergenceError) as got:
        _kernel_array(0.0, np.array([30.0]))
    assert str(got.value) == "vectorized kernel series (a=0.0) did not converge within 2 terms"


def test_array_series_fails_before_summing_when_no_term_reaches_kmin():
    # an element is done only at k >= kmin: with kmin past the last allowed
    # k the sum cannot stop, and summed until a term overflowed (at Q = 1e5,
    # kmin = 49999 in the even-Q 1F1, after all 10000 terms)
    ratios = []

    def ratio(k):
        ratios.append(k)
        return 0.0

    for kmin in (10000.0, 49999.0, math.inf):
        with pytest.raises(ConvergenceError, match=r"^vectorized s did not converge within 10000 terms$"):
            specfun._series_array(ratio, np.ones(2), kmin, 1.0, lambda: "s")
    assert ratios == []
    # the last allowed k still reaches kmin = 9999
    total, _ = specfun._series_array(ratio, np.ones(2), 9999.0, 1.0, lambda: "s")
    assert total.tolist() == [1.0, 1.0] and len(ratios) == 10000


class _CountingFloat(float):
    # A float that counts the sums it is the left operand of.
    sums = 0

    def __add__(self, other):
        _CountingFloat.sums += 1
        return float(self) + other


def test_scalar_series_fail_before_summing_when_no_term_reaches_kmin():
    # the scalar loops stop only at k >= kmin, as the array loop: with kmin
    # past the last allowed k they raise their usual error before the first
    # term, not after all 10000 (3.8 ms for hyp1f1(0.5 + 5e99, 1.5, -2500))
    ratios = []

    def ratio(k):
        ratios.append(k)
        return 0.0

    for kmin in (10000.0, 49999.0, math.inf, math.nan):
        with pytest.raises(ConvergenceError, match=r"^s did not reach rel_tol=1e-16 within 10000 terms$"):
            _series(ratio, 1.0, kmin, lambda: "s")
    assert ratios == []
    total, _ = _series(ratio, 1.0, 9999.0, lambda: "s")
    assert total == 1.0 and len(ratios) == 10000
    # the inlined Kummer loop sums (a + k) once a term: kmin is about 3.5e51
    a = _CountingFloat(0.5 + 5e99)
    assert _kmin(a, 1.5, 1.0, 2500.0) > 1e51 and _CountingFloat.sums == 0
    want = r"^1F1 series for \(a=5e\+99, b=1\.5, z=-2500\.0\) did not reach rel_tol=1e-16 within 10000 terms$"
    with pytest.raises(ConvergenceError, match=want):
        _series_1f1(a, 1.5, -2500.0)
    assert _CountingFloat.sums == 0


# ---------------------------------------------------------------------------
# Kummer series stop and the kernel's constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [22.0, 40.0, 59.0])
def test_hyp1f1_near_terminating_series_sums_its_tail(u):
    # b - a = -1 + 4e-16: terms 1 and 2 of the Kummer series are tiny, the
    # tail past them is not, and two small terms must not end the sum there
    a = 1.4999999999999996
    want = mp_hyp1f1(a, 0.5, -u)
    arr = _hyp1f1_array(a, 0.5, np.array([-u]))[0]
    for got in (hyp1f1(a, 0.5, -u), arr):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lgamma_half_taylor_coefficients():
    # c_1 = -psi(1/2) = gamma_E + 2 ln 2, c_n = (2^n - 1) zeta(n)/n
    import mpmath

    want = [mpmath.euler + 2 * mpmath.log(2)] + [
        (2**n - 1) * mpmath.zeta(n) / n for n in range(2, len(_LGAMMA_HALF_TAYLOR) + 1)
    ]
    for got, w in zip(_LGAMMA_HALF_TAYLOR, want):
        assert got == float(w)


@pytest.mark.parametrize("a", [0.0, 1.0, 1.25])
def test_array_paths_read_integer_arguments_as_float(a):
    # an integer grid spans the near, Kummer and asymptotic branches
    u = np.arange(0, 200, 7)
    for fn in (
        lambda v: _kernel_array(a, v),
        lambda v: _hyp1f1_array(a + 1.0, 1.5, -v),
    ):
        got = fn(u)
        assert got.dtype == np.float64
        assert np.array_equal(got, fn(u.astype(np.float64)))


def test_kernel_array_depends_on_its_batch_within_bounds():
    # On the Kummer branch the loop sums until the slowest element stops, so
    # a fast element takes a few terms past its own stop.  At the full
    # double precision tolerance those terms move a sum by an ulp or two at
    # most: measured over a in [-0.5, 5] and u in [1.5, 59], 0 between a
    # one-element call and a batch ending at u = 59, and 2.2e-16 against the
    # scalar _kernel and for the slope M(a+1; 3/2; -u) against hyp1f1.
    us = np.linspace(1.5, 59.0, 24)
    batch_gap = scalar_gap = slope_gap = 0.0
    for a in np.linspace(-0.5, 5.0, 12).tolist():
        one = np.array([_kernel_array(a, us[i : i + 1])[0] for i in range(us.size)])
        scalar = np.array([specfun._kernel(a, u) for u in us.tolist()])
        scalar_gap = max(scalar_gap, float(np.max(np.abs(one / scalar - 1.0))))
        for k in range(0, us.size, 7):
            got = _kernel_array(a, np.append(us[k : k + 7], 59.0))[:-1]
            n = got.size
            batch_gap = max(batch_gap, float(np.max(np.abs(got / one[k : k + n] - 1.0))))
            scalar_gap = max(scalar_gap, float(np.max(np.abs(got / scalar[k : k + n] - 1.0))))
        slope = _hyp1f1_array(a + 1.0, 1.5, -us)
        want = np.array([hyp1f1(a + 1.0, 1.5, -u) for u in us.tolist()])
        nz = want != 0.0  # even Q: M(a+1; 3/2; -u) has exact zeros
        slope_gap = max(slope_gap, float(np.max(np.abs(slope[nz] / want[nz] - 1.0))))
    assert batch_gap <= 5e-16
    assert scalar_gap <= 5e-16
    assert slope_gap <= 5e-16
