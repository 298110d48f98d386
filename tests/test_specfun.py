"""Special-function layer against 40-digit references and identities."""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoqubit import (
    ConvergenceError,
    DomainError,
    EvalOptions,
    ParameterError,
    PoleError,
    dawson,
    dhyp1f1_dz,
    dhyp2f2_11_32_2_dz,
    gamma,
    hyp1f1,
    hyp2f2_11_32_2,
)
from topoqubit.specfun import (
    _OVERFLOW_GUARD,
    _RESCALE_LIMIT,
    _SERIES_BLOCK,
    DEFAULT_OPTIONS,
    _asymptotic,
    _asymptotic_array,
    _block_len,
    _dawson_array,
    _dhyp2f2_array,
    _f20_ratio,
    _hyp1f1_array,
    _hyp1f1_asymptotic_array,
    _hyp2f2_array,
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
    opts = EvalOptions(max_terms=40_000)
    checked = 0
    worst = 0.0
    for q in qs:
        a = (q - 1.0) / 2.0
        for ab in ((a, 0.5), (a + 1.0, 1.5)):
            for x in tg:
                z = -x * x / 4.0
                got = hyp1f1(ab[0], ab[1], z, opts)
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
    opts = EvalOptions(max_terms=200_000)
    val = hyp1f1(1.0, 0.5, -1.0e4, opts)
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


def test_hyp1f1_budget_exhaustion():
    # below the large-u switch the Kummer series needs ~70 terms here
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 0.5, -50.0, EvalOptions(max_terms=10))
    # above it the expansion needs 8 terms and the series ~1000: 5 fit neither
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 0.5, -900.0, EvalOptions(max_terms=5))


@pytest.mark.parametrize("z, want", HYP2F2_CASES)
def test_hyp2f2_frozen(z, want):
    assert hyp2f2_11_32_2(z) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hyp2f2_oracle_sweep():
    # straddles the direct/resummed switchover at |z| = 8
    for z in [-0.01, -0.5, -1.0, -5.0, -7.9, -8.1, -20.0, -50.0, -400.0, -2500.0]:
        assert hyp2f2_11_32_2(z) == pytest.approx(mp_hyp2f2(z), rel=1e-10, abs=0.0)
    big = hyp2f2_11_32_2(-1.0e4, EvalOptions(max_terms=40_000))
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


def test_eval_options_validation():
    with pytest.raises(DomainError):
        EvalOptions(rel_tol=0.0)
    with pytest.raises(DomainError):
        EvalOptions(max_terms=0)
    opts = EvalOptions()
    assert opts.rel_tol == 1e-13 and opts.max_terms == 10_000


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
def test_hyp1f1_against_reference(a, b, z):
    got = hyp1f1(a, b, z, EvalOptions(max_terms=40_000))
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
        arr = _hyp1f1_array(ab[0], ab[1], z, DEFAULT_OPTIONS)
        for u, got_arr in zip(LARGE_U, arr):
            want = mp_hyp1f1(ab[0], ab[1], -u)
            for got in (hyp1f1(ab[0], ab[1], -u), got_arr):
                if want == 0.0:  # even Q: e^-u times a polynomial underflows
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, rel=_large_u_tol(u), abs=0.0), (ab, u)


def test_hyp2f2_large_u_oracle():
    """The Q = 1 branch: 2F2 and its derivative, scalar and array."""
    z = -np.array(LARGE_U)
    f_arr = _hyp2f2_array(z, DEFAULT_OPTIONS)
    df_arr = _dhyp2f2_array(z, DEFAULT_OPTIONS)
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
        got_arr = _hyp1f1_array(ab[0], ab[1], np.array([-u]), DEFAULT_OPTIONS)[0]
        for got in (hyp1f1(ab[0], ab[1], -u), got_arr):
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hyp1f1_large_u_needs_few_terms():
    # z = -900 needs ~1000 Kummer-series terms but 8 expansion terms
    got = hyp1f1(1.0, 0.5, -900.0, EvalOptions(max_terms=10))
    assert got == pytest.approx(mp_hyp1f1(1.0, 0.5, -900.0), rel=1e-14, abs=0.0)


def test_dawson_large_argument():
    xs = [7.7, 7.8, 50.0, 1e3, 1e5, 5e6]
    arr = _dawson_array(np.array(xs))
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
        arr = _hyp1f1_array(ab[0], ab[1], -us, DEFAULT_OPTIONS)
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
            _, ok = _hyp1f1_asymptotic_array(ab[0], ab[1], u, DEFAULT_OPTIONS)
            _, n2 = _series_1f1_array(ab[1] - ab[0], ab[1], u[~ok], DEFAULT_OPTIONS)
            count += int(np.count_nonzero(n2))
            arr = _hyp1f1_array(ab[0], ab[1], -u, DEFAULT_OPTIONS)
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
                lambda z: _hyp1f1_array(1.0, 0.5, z, DEFAULT_OPTIONS),
                lambda z: _hyp2f2_array(z, DEFAULT_OPTIONS),
                lambda z: _dhyp2f2_array(z, DEFAULT_OPTIONS),
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
    u = np.linspace(60.0, 100.0, 401)
    for q in (5.3, 9.1, 12.3, 20.5):
        a = (q - 1.0) / 2.0
        for p, r, sign in ((a, a + 0.5, 1.0), (0.5 - a, 1.0 - a, -1.0), (a + 1.0, a + 0.5, 1.0),
                           (0.5 - a, -a, -1.0)):
            sums, ok = _asymptotic_array(partial(_f20_ratio, p, r), sign / u, np.ones_like(u),
                                         DEFAULT_OPTIONS)
            for x, s, o in zip(u, sums, ok):
                want = _asymptotic(_f20_ratio(p, r, sign / x), 1.0, DEFAULT_OPTIONS)
                assert o == (want is not None), (q, p, r, x)
                if o:
                    assert s == pytest.approx(want, rel=1e-16, abs=0.0)
