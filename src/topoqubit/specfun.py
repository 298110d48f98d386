"""Real-argument special functions with controlled accuracy.

Gamma, Kummer's confluent hypergeometric M(a;b;z) and its z-derivative, and
the dephasing kernel K(a, u) = (1 - M(a; 1/2; -u))/a without the pole of its
1/a, for every a; 2F2({1,1};{3/2,2};z), its derivative and the Dawson
integral are thin wrappers around these.  Plain double precision with
compensated series summation: arbitrary-precision cross-checks live in the
test suite, never here, so the runtime footprint stays numpy-only.

Accuracy is one policy, not an option: every series, scalar or array, stops
at full double precision (``_REL_TOL``) within one term budget
(``_MAX_TERMS``), and no function takes an accuracy argument.

All functions are pure; concurrent use is unrestricted.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import count

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, PoleError

__all__ = [
    "gamma",
    "hyp1f1",
    "dhyp1f1_dz",
    "hyp2f2_11_32_2",
    "dhyp2f2_11_32_2_dz",
    "dawson",
]

# A series stops once two consecutive terms are at most _REL_TOL of the
# running sum, or fails with ConvergenceError after _MAX_TERMS terms.  At
# full double precision the scalar stop and the array loop's later stop give
# the same K to an ulp or two, so an element hardly depends on its batch.
# Every loop reads both when called: a test sets a budget by patching them.
_REL_TOL = 1e-16
_MAX_TERMS = 10_000

_LN2 = math.log(2.0)
_LN_SQRT_PI = 0.5 * math.log(math.pi)

# Series accumulators are rescaled by 2**-1024 past this magnitude; the
# shifted exponent is reassembled in log space at the end.
_RESCALE_LIMIT = 1e250
_RESCALE_BITS = 1024
# The array loops test convergence and rescaling once per block of this many
# terms; in between, a term costs one ratio, one product and one Kahan step.
_SERIES_BLOCK = 8
# Bound kept on every array accumulator between two rescale tests.
_OVERFLOW_GUARD = 1e307

# exp() underflows to zero a little below exp(-745); products e^z * total are
# formed directly only when safely inside the normal range.
_EXP_UNDERFLOW = -745.0
_DIRECT_EXP_LIMIT = -700.0

# The direct series of the 2F2 derivative serves |z| <= this, where the
# identity through K(0, u) and the Dawson integral cancels.
_F22_DIRECT_LIMIT = 8.0

# From u = -z >= this on, large-u expansions replace the series, which need
# about u terms.  Below it the expansions lose digits at the parameters the
# kernel uses (2.5e-10 at u = 40, Q = 3.9).
_ASYMPTOTIC_LIMIT = 60.0
# An asymptotic sum is truncated at its first term below this share of it.
# It must stay below 2**-54 for the array sums to be the scalar's doubles:
# every term summed past the scalar stop is then under half an ulp of the
# sum.  _REL_TOL (1e-16) is above 2**-54, so the two must not be merged.
_ASYMPTOTIC_TOL = 1e-17

# Below this |a|, (lnGamma(1/2 - a) - lnGamma(1/2))/a comes from its Taylor
# series sum_n c_n a^(n-1), c_1 = -psi(1/2) = gamma_E + 2 ln 2 and
# c_n = (2^n - 1) zeta(n)/n; the 18 terms reach 3e-17 at the limit.  Above
# it the lgamma difference over a is good to ~1e-15 of the kernel.
_LGAMMA_TAYLOR_LIMIT = 0.0625
_LGAMMA_HALF_TAYLOR = (
    1.9635100260214235, 2.4674011002723395, 2.80479944070572, 4.0587121264167685,
    6.428952081888894, 10.682102150836716, 18.294336889643457, 32.00496572880947,
    56.89180985934755, 102.40174503557579, 186.18287309751204, 341.33397703631636,
    630.1542419253858, 1170.2859591569047, 2184.5334856492714, 4096.000095179396,
    7710.117706772447, 14563.555593150464,
)


def _require_no_pole(x: float, exc: type, name: str) -> None:
    # Non-positive integers are poles of Gamma; reject anything within 1e-12.
    if x < 0.5:
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) <= 1e-12:
            raise exc(f"{name}={x!r} is within 1e-12 of the pole at {nearest}")


def _require_kummer_parameters(a: float, b: float) -> None:
    # A NaN or infinite a, or a NaN b, would sum the whole budget of NaN
    # terms before failing, and b = -inf has no nearest pole to check; b =
    # +inf is left to give the limit M = 1.
    if not math.isfinite(a):
        raise ParameterError(f"a={a!r} is not finite")
    if math.isnan(b) or b == -math.inf:
        raise ParameterError(f"b={b!r} is neither finite nor +inf")
    _require_no_pole(b, ParameterError, "b")


def gamma(x: float) -> float:
    """Gamma function on the real line, poles rejected.

    Raises
    ------
    PoleError
        If ``x`` lies within 1e-12 of a non-positive integer.
    DomainError
        If ``x`` is NaN or -inf, or Gamma(x) overflows the double range
        (x > ~171.6).
    """
    if math.isnan(x) or x == -math.inf:
        raise DomainError(f"x={x!r}: Gamma is defined for finite x and +inf")
    _require_no_pole(x, PoleError, "x")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x!r}) overflows the double range") from None


def _series(ratio, first: float, kmin: float, describe, weights=None) -> tuple[float, int]:
    """Kahan-summed ratio series: term_0 = ``first``, term_{k+1} = term_k * ratio(k).

    With ``weights``, an iterator of scalars w_0, w_1, ..., the sum is of
    w_k term_k.  Stops once two consecutive summands drop below ``_REL_TOL``
    times the running sum and k >= ``kmin``.  Returns (total, n2) meaning
    total * 2**n2.  ``describe()`` names the series in the error raised when
    the term budget runs out; it is a callable so that no message is
    formatted otherwise.
    """
    rel_tol = _REL_TOL
    total = first if weights is None else first * next(weights)
    term = first
    comp = 0.0
    n2 = 0
    small_run = 0
    for k in range(_terms_to_sum(kmin)):
        term *= ratio(k)
        t = term if weights is None else term * next(weights)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        abs_term = abs(t)
        abs_total = abs(total)
        if abs_term <= rel_tol * abs_total:
            small_run += 1
            if small_run >= 2 and k >= kmin:
                return total, n2
        else:
            small_run = 0
        if abs_total > _RESCALE_LIMIT or abs(term) > _RESCALE_LIMIT:
            total = math.ldexp(total, -_RESCALE_BITS)
            term = math.ldexp(term, -_RESCALE_BITS)
            comp = math.ldexp(comp, -_RESCALE_BITS)
            n2 += _RESCALE_BITS
    raise ConvergenceError(
        f"{describe()} did not reach rel_tol={rel_tol} within {_MAX_TERMS} terms"
    )


def _terms_to_sum(kmin: float) -> int:
    # The term budget of a scalar series, or none of it when no k below
    # _MAX_TERMS reaches kmin, so that the sum cannot stop: it then fails at
    # once rather than after summing terms that only overflow.
    return _MAX_TERMS if kmin <= _MAX_TERMS - 1 else 0


def _kmin(p: float, q: float, r: float, x: float) -> float:
    """First k with |p + k| x / ((q + k)(r + k)) < 1 at every later k, where
    the two-small-terms stop may act: before it a term can be tiny (p + k
    within ulps of 0) and the tail not.  The larger root of
    k^2 + (q + r - x) k + q r - p x, past max(0, -p, -q, -r); -p at p = 0, -1, ..."""
    if p <= 0.0 and float(p).is_integer():
        return -p
    k0 = max(0.0, -p, -q, -r)
    s = q + r - x
    disc = s * s - 4.0 * (q * r - p * x)
    if disc > 0.0:
        k0 = max(k0, 0.5 * (math.sqrt(disc) - s))
    return k0


# Term ratios term_{k+1} / term_k of the summed series.  Each accepts a float
# or an ndarray z, so the scalar and the array loop share one formula.


def _kummer_ratio(a: float, b: float, z):
    return lambda k: (a + k) * z / ((b + k) * (k + 1.0))


def _kernel_ratio(a: float, z):
    # K(a, -z) / (-2z) = 2F2(a+1, 1; 3/2, 2; z), the direct series of K.
    return lambda k: (a + 1.0 + k) * z / ((1.5 + k) * (2.0 + k))


def _df22_ratio(z):
    # Term-wise derivative of 2F2: (1/3) 2F2({2,2};{5/2,3};z).
    return lambda k: (2.0 + k) * (2.0 + k) * z / ((2.5 + k) * (3.0 + k) * (1.0 + k))


def _f20_ratio(p: float, q: float, w):
    # 2F0(p, q;; w), the asymptotic series of Kummer's function.
    return lambda k: (p + k) * (q + k) * w / (k + 1.0)


def _kernel_tail_ratio(a: float, w):
    # (2F0(a, a+1/2;; w) - 1)/a = sum_{s>=1} (a+1)_{s-1} (a+1/2)_s w^s / s!,
    # which carries no 1/a: term ratios from s = 1 on.
    return lambda k: (a + 1.0 + k) * (a + 1.5 + k) * w / (k + 2.0)


def _kummer_asymptotic_coefs(a: float, b: float) -> tuple[float, float] | None:
    """Weights of the two parts of M(a;b;-u) at large u (DLMF 13.7.2, z = -u):

        M ~ Gamma(b)/Gamma(b-a) u^-a 2F0(a, a-b+1;; 1/u)
            + cos(pi(b-a)) Gamma(b)/Gamma(a) e^-u u^(a-b) 2F0(b-a, 1-a;; -1/u).

    None when b - a is a pole of Gamma, where M is e^-u times a polynomial
    that the Kummer series sums exactly, or when a Gamma leaves the double
    range.
    """
    if b - a <= 0.0 and float(b - a).is_integer():
        return None
    try:
        gb = math.gamma(b)
        dom = gb / math.gamma(b - a)
        # 1/Gamma(a) vanishes at the poles a = 0, -1, ...
        pole = a <= 0.0 and float(a).is_integer()
        sub = 0.0 if pole else math.cos(math.pi * (b - a)) * gb / math.gamma(a)
    except (OverflowError, ZeroDivisionError):
        return None
    if dom == 0.0 or not (math.isfinite(dom) and math.isfinite(sub)):
        return None
    return dom, sub


def _asymptotic(ratio, first: float) -> float | None:
    """Asymptotic ratio series truncated at its first term below
    ``_ASYMPTOTIC_TOL`` of the sum; None if the terms grow before that (the
    expansion cannot reach double precision there) or the budget runs out.
    """
    total = term = first
    for k in range(_MAX_TERMS):
        nxt = term * ratio(k)
        if abs(nxt) > abs(term):
            return None
        term = nxt
        total += term
        if abs(term) <= _ASYMPTOTIC_TOL * abs(total):
            return total
    return None


def _series_1f1(a: float, b: float, z: float) -> tuple[float, int]:
    # _series(_kummer_ratio(a, b, z), 1.0, kmin, ...) with the ratio,
    # the Kahan step and both tests written into the loop, in the same
    # order, so each term costs no Python call: the root refinement of the
    # revival search makes hundreds of these calls.  Same (total, n2) and
    # the same error.
    kmin = _kmin(a, b, 1.0, abs(z))
    rel_tol = _REL_TOL
    limit = _RESCALE_LIMIT
    total = term = 1.0
    comp = 0.0
    n2 = 0
    small_run = 0
    for k in range(_terms_to_sum(kmin)):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        abs_term = abs(term)
        abs_total = abs(total)
        if abs_term <= rel_tol * abs_total:
            small_run += 1
            if small_run >= 2 and k >= kmin:
                return total, n2
        else:
            small_run = 0
        if abs_total > limit or abs_term > limit:
            total = math.ldexp(total, -_RESCALE_BITS)
            term = math.ldexp(term, -_RESCALE_BITS)
            comp = math.ldexp(comp, -_RESCALE_BITS)
            n2 += _RESCALE_BITS
    raise ConvergenceError(
        f"1F1 series for (a={a}, b={b}, z={z}) did not reach rel_tol={rel_tol} "
        f"within {_MAX_TERMS} terms"
    )


def _hyp1f1_asymptotic(a: float, b: float, u: float) -> float | None:
    # M(a;b;-u) by the expansion of _kummer_asymptotic_coefs; None where the
    # Kummer series has to serve instead.
    coefs = _kummer_asymptotic_coefs(a, b)
    if coefs is None:
        return None
    dom, sub = coefs
    s1 = _asymptotic(_f20_ratio(a, a - b + 1.0, 1.0 / u), 1.0)
    s2 = _asymptotic(_f20_ratio(b - a, 1.0 - a, -1.0 / u), 1.0)
    if s1 is None or s2 is None:
        return None
    lnu = math.log(u)
    # u^-a directly while it and the product are normal: pow is exact to an
    # ulp, where exp of the summed logs loses |log| ulps.
    lmag = math.log(abs(dom)) - a * lnu
    if abs(a * lnu) < -_DIRECT_EXP_LIMIT and abs(lmag) < -_DIRECT_EXP_LIMIT:
        val = dom * u**-a * s1
    elif lmag > _EXP_UNDERFLOW:
        val = math.copysign(math.exp(lmag), dom) * s1
    else:
        val = 0.0
    if sub != 0.0:
        # e^-u u^(a-b) in log space: the factors alone under- and overflow.
        lsub = math.log(abs(sub)) - u + (a - b) * lnu
        if lsub > _EXP_UNDERFLOW:
            val += math.copysign(math.exp(lsub), sub) * s2
    return val


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a; b; z).

    For z <= -60 the large-argument expansion (DLMF 13.7.2) is summed, unless
    its terms grow before reaching double precision or b - a is a pole of
    Gamma.  Otherwise, for z < -1, the Kummer transformation
    M(a;b;z) = e^z M(b-a;b;-z) is applied so the summed series has eventually
    positive terms and no destructive cancellation; the product with e^z is
    assembled in log space when either factor leaves the comfortable double
    range.

    Raises
    ------
    ParameterError
        If ``a`` is not finite, ``b`` is NaN or -inf, or ``b`` is within
        1e-12 of a non-positive integer.
    ConvergenceError
        If ``z`` is not finite or the series budget is exhausted.
    """
    _require_kummer_parameters(a, b)
    if not math.isfinite(z):
        raise ConvergenceError(f"1F1 (a={a}, b={b}) has no series at z={z}")
    if z == 0.0:
        return 1.0
    if z >= -1.0:
        total, n2 = _series_1f1(a, b, z)
        return math.ldexp(total, n2)
    if z <= -_ASYMPTOTIC_LIMIT:
        val = _hyp1f1_asymptotic(a, b, -z)
        if val is not None:
            return val
    total, n2 = _series_1f1(b - a, b, -z)
    if n2 == 0 and z > _DIRECT_EXP_LIMIT:
        return math.exp(z) * total
    if total == 0.0:
        return 0.0
    mag = z + math.log(abs(total)) + n2 * _LN2
    if mag < _EXP_UNDERFLOW:
        return 0.0
    return math.copysign(math.exp(mag), total)


def dhyp1f1_dz(a: float, b: float, z: float) -> float:
    """d/dz of M(a;b;z) via the contiguous relation dM/dz = (a/b) M(a+1;b+1;z)."""
    _require_kummer_parameters(a, b)
    return (a / b) * hyp1f1(a + 1.0, b + 1.0, z)


def _kummer_brackets(a: float):
    """C_k = [1 - (1/2-a)_k / (1/2)_k] / a for k = 1, 2, ..., one scalar a term.

    For |a| < 1/4, C_k = sum_{j<k} P_j/(j+1/2) with P_j = (1/2-a)_j/(1/2)_j,
    from P_{j+1} = P_j (j+1/2-a)/(j+1/2) and 1 - P_k = sum_{j<k} (P_j - P_{j+1}):
    every term is positive, nothing divides by a, and a = 0 needs no case of
    its own.  Elsewhere the Pochhammer ratio is a plain product with no pole
    to cancel.
    """
    if abs(a) < 0.25:
        c = 0.0
        p = 1.0
        for j in count():
            h = j + 0.5
            c += p / h
            p *= (h - a) / h
            yield c
    else:
        r = 1.0
        for j in count():
            h = j + 0.5
            r *= (h - a) / h
            yield (1.0 - r) / a


def _kernel_asymptotic_parts(a: float, u, lib):
    """DLMF 13.7.2 for K at u >= 60: K = (1 - R)/a - R T + S, where
    R = Gamma(1/2) u^-a / Gamma(1/2 - a), T = (2F0(a, a+1/2;; 1/u) - 1)/a and
    S = sin(pi a) Gamma(1/2)/Gamma(a+1) e^-u u^(a-1/2) 2F0(1/2-a, 1-a;; -1/u).
    Returns (1 - R)/a, R and the bound on S without its sine and 2F0, for a
    float u with ``lib`` = math or an ndarray with ``lib`` = numpy.

    Where Gamma(1/2 - a) > 0, (1 - R)/a = (expm1(L)/L) l with L = -a l and
    l = ln u + (lnGamma(1/2 - a) - lnGamma(1/2))/a, which is l at a = 0.
    S stays below 1e-17 of K unless a > ~6.
    """
    lnu = lib.log(u)
    s_bound = lib.exp(_LN_SQRT_PI - math.lgamma(a + 1.0) - u + (a - 0.5) * lnu)
    c = 0.5 - a
    if c > 0.0:
        # (lnGamma(1/2 - a) - lnGamma(1/2))/a, -psi(1/2) at a = 0
        if abs(a) < _LGAMMA_TAYLOR_LIMIT:
            slope = 0.0
            for coef in reversed(_LGAMMA_HALF_TAYLOR):
                slope = slope * a + coef
        else:
            slope = (math.lgamma(c) - _LN_SQRT_PI) / a
        ell = lnu + slope
        if a == 0.0:
            return ell, 1.0, s_bound
        return lib.expm1(-a * ell) / (-a * ell) * ell, lib.exp(-a * ell), s_bound
    # a > 1/2: |R| < 0.02, no cancellation; Gamma(c) < 0 on (-1, 0), (-3, -2), ...
    sign = 1.0 if math.floor(c) % 2 == 0 else -1.0
    r = sign * lib.exp(_LN_SQRT_PI - math.lgamma(c) - a * lnu)
    return (1.0 - r) / a, r, s_bound


def _kernel(a: float, u: float) -> float:
    """K(a, u) = (1 - M(a; 1/2; -u))/a = F(a, u)/Gamma(a+1) for u >= 0 and
    a >= -1/2, with the 1/a of the Gamma((Q-1)/2) pole cancelled in every branch:

        direct      u <= 1       K = 2u sum_j (a+1)_j (-u)^j / ((3/2)_j (2)_j)
        Kummer      1 < u < 60   K = e^-u sum_{k>=1} C_k u^k / k!
        asymptotic  u >= 60      DLMF 13.7.2 (:func:`_kernel_asymptotic_parts`)

    with C_k from :func:`_kummer_brackets`.  At even Q >= 2 (a - 1/2 = 0, 1,
    ...) M is e^-u times a polynomial and hyp1f1 sums K = (1 - M)/a for u > 1.
    Raises ConvergenceError if ``u`` is not finite or a budget runs out.
    """
    if not math.isfinite(u):
        raise ConvergenceError(f"kernel (a={a}) has no series at u={u}")
    if u == 0.0:
        return 0.0
    describe = lambda: f"kernel series for (a={a}, u={u})"  # noqa: E731
    if u <= 1.0:
        total, _ = _series(_kernel_ratio(a, -u), 1.0, _kmin(a + 1.0, 1.5, 2.0, u), describe)
        return 2.0 * u * total
    if not (a >= 0.5 and float(a - 0.5).is_integer()):
        if u < _ASYMPTOTIC_LIMIT:
            # Terms C_{k+1} u^(k+1)/(k+1)!, far below the rescale limit.
            ratio = lambda k: u / (k + 2.0)  # noqa: E731
            total, _ = _series(ratio, u, u, describe, _kummer_brackets(a))
            return math.exp(-u) * total
        tail = _asymptotic(_kernel_tail_ratio(a, 1.0 / u), (a + 0.5) / u)
        if tail is not None:
            deficit, r, s_bound = _kernel_asymptotic_parts(a, u, math)
            val = deficit - r * tail
            if s_bound <= _ASYMPTOTIC_TOL * abs(val):
                return val
    # Even Q, or an expansion that fails or whose e^-u part counts: only for
    # a > ~4, far from the pole, or a term budget too small for it.
    if a == 0.0:
        raise ConvergenceError(f"{describe()} did not converge within {_MAX_TERMS} terms")
    return (1.0 - hyp1f1(a, 0.5, -u)) / a


def hyp2f2_11_32_2(z: float) -> float:
    """The specialized hypergeometric 2F2({1,1}; {3/2,2}; z) for z <= 0.

    It is K(0, u)/(2u) at u = -z, the Ohmic dephasing kernel; see the
    branch table of K.

    Raises
    ------
    DomainError
        If z > 0.
    ConvergenceError
        If ``z`` is not finite or the series budget is exhausted.
    """
    if z > 0.0:
        raise DomainError(f"hyp2f2_11_32_2 requires z <= 0, got {z}")
    if z == 0.0:
        return 1.0
    return _kernel(0.0, -z) / (-2.0 * z)


def dhyp2f2_11_32_2_dz(z: float) -> float:
    """d/dz of 2F2({1,1};{3/2,2};z) for z <= 0.

    Shifted-parameter series for |z| <= 8, where the identity used beyond,
    d/dz 2F2(z)|_{z=-u} = K(0, u)/(2u^2) - D(sqrt(u))/u^{3/2} with D the
    Dawson integral, D(sqrt(u)) = sqrt(u) M(1; 3/2; -u), would cancel.
    """
    if z > 0.0:
        raise DomainError(f"dhyp2f2_11_32_2_dz requires z <= 0, got {z}")
    if z == 0.0:
        return 1.0 / 3.0
    if z >= -_F22_DIRECT_LIMIT:
        total, _ = _series(
            _df22_ratio(z), 1.0 / 3.0, abs(z), lambda: f"2F2 derivative series at z={z}"
        )
        return total
    return _kernel(0.0, -z) / (2.0 * z * z) + hyp1f1(1.0, 1.5, z) / z


def dawson(x: float) -> float:
    """Dawson integral D(x) = e^{-x^2} integral_0^x e^{t^2} dt = x M(1; 3/2; -x^2),
    summed to a few ulps over the real line."""
    u = x * x
    if u == math.inf:
        # D(x) = (1/2x)(1 + 1/(2x^2) + ...): the correction is below an ulp.
        return 0.5 / x
    return x * hyp1f1(1.0, 1.5, -u)


# ---------------------------------------------------------------------------
# Vectorized counterparts used by the dense-profile evaluator.  The same
# algorithms, elementwise over a numpy array of nonpositive arguments; term
# rescaling is applied per element so small-|z| entries are never squashed.
# Like the scalar loops, each reads _REL_TOL and _MAX_TERMS when called.
# They share only the term ratios, the stopping bounds, the Kummer brackets
# and the expansion weights with the scalar loops above, which serve root
# refinement and check this path: the asymptotic sums return the scalar
# loop's doubles, and the series may sum a few terms past the scalar stop,
# which at _REL_TOL moves a sum by an ulp or two at most.
# ---------------------------------------------------------------------------


def _block_len(growth: float) -> int:
    """Terms summed between two rescale tests of :func:`_series_array`.

    With no term exceeding the one before it by more than g = max(growth, 1),
    accumulators at most _RESCALE_LIMIT at one test are at most
    _RESCALE_LIMIT (m + 1) g^m after m more terms; m is the longest block up
    to _SERIES_BLOCK that keeps this below _OVERFLOW_GUARD.  Every term is
    tested (m = 1) when the growth has no finite bound.
    """
    if not math.isfinite(growth):
        return 1
    lg = math.log(max(growth, 1.0))
    headroom = math.log(_OVERFLOW_GUARD / _RESCALE_LIMIT)
    m = _SERIES_BLOCK
    while m > 1 and m * lg + math.log(m + 1.0) >= headroom:
        m -= 1
    return m


def _series_array(
    ratio, first: np.ndarray, kmin: float, growth: float, describe, weights=None
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`_series` with initial terms ``first`` and scalar
    ``weights``; ``growth`` bounds |ratio(k)| over every k and element (inf
    if unknown).

    A term costs one ratio, one product and one Kahan step; the stop and
    rescale tests run once per block of :func:`_block_len` terms, and once
    right past ``kmin`` (a terminating series ends there).  An element is
    done once the last two terms of a block ending at k >= ``kmin`` are
    small, each against the sum it ended; the loop stops when every element
    is done, so it may sum a few terms past the scalar stop.
    """
    rel_tol, max_terms = _REL_TOL, _MAX_TERMS
    block = _block_len(growth)
    last = max_terms - 1
    if not kmin <= last:
        # No element can be done: fail before summing terms that only overflow.
        raise ConvergenceError(f"vectorized {describe()} did not converge within {max_terms} terms")
    k_first = math.ceil(kmin) + 1
    total = first.copy() if weights is None else first * next(weights)
    term = first.copy()
    wt = term if weights is None else np.empty_like(first)  # the summand
    comp = np.zeros_like(first)
    s = np.empty_like(first)
    n2 = np.zeros(first.shape, dtype=np.int64)
    done = np.zeros(first.shape, dtype=bool)
    small_prev = np.zeros(first.shape, dtype=bool)
    for k in range(max_terms):
        term *= ratio(k)
        if weights is not None:
            np.multiply(term, next(weights), out=wt)
        # Kahan step in three buffers: comp takes y = wt - comp, the old
        # sum's buffer takes s - sum, then comp = (s - sum) - y.
        np.subtract(wt, comp, out=comp)
        np.add(total, comp, out=s)
        np.subtract(s, total, out=total)
        np.subtract(total, comp, out=comp)
        total, s = s, total
        at_test = (k + 1) % block == 0 or k == last or k == k_first
        if at_test or (k + 2) % block == 0 or k + 1 == last or k + 1 == k_first:
            # The last two terms of a block, each against the sum it ended.
            small = np.abs(wt) <= rel_tol * np.abs(total)
            if at_test and k >= kmin:
                done |= small & small_prev
            small_prev = small
        if not at_test:
            continue
        if done.all():
            return total, n2
        big = (np.abs(total) > _RESCALE_LIMIT) | (np.abs(term) > _RESCALE_LIMIT)
        if big.any():
            total[big] = np.ldexp(total[big], -_RESCALE_BITS)
            term[big] = np.ldexp(term[big], -_RESCALE_BITS)
            comp[big] = np.ldexp(comp[big], -_RESCALE_BITS)
            n2[big] += _RESCALE_BITS
    raise ConvergenceError(f"vectorized {describe()} did not converge within {max_terms} terms")


def _asymptotic_array(
    make_ratio, arg: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`_asymptotic` with term ratios ``make_ratio(arg)``
    over 1-D arrays: (sums, ok), ``ok`` False where the terms grew before
    reaching ``_ASYMPTOTIC_TOL`` of the sum (the sum is then ``first``).
    The sums are the scalar loop's doubles.

    One pass: an element leaves the working set at the term where its series
    grows (a term not <= the one before in magnitude, NaN included), ok if
    the sum before it had reached the tolerance; the others take the
    tolerance test once per ``_SERIES_BLOCK`` terms and at the last allowed
    term.  Summing past the scalar stop changes no sum: from there on every
    term is at most _ASYMPTOTIC_TOL < 2**-54 of the sum, below half an ulp
    of it, so adding it rounds back to the same double.
    """
    max_terms = _MAX_TERMS
    out = first.copy()
    ok = np.zeros(first.shape, dtype=bool)
    idx = np.arange(first.size)
    term, total, mag = first, first, np.abs(first)
    ratio = make_ratio(arg)
    # A term that grew leaves with its element; it may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_terms + 1):
            nxt = term * ratio(k)
            nmag = np.abs(nxt)
            keep = nmag <= mag
            test = (k > 0 and k % _SERIES_BLOCK == 0) or k == max_terms
            # count_nonzero is the cheapest all() on a bool array: one per term
            if test or np.count_nonzero(keep) < keep.size:
                # The sum and last term so far: terms 0..k of the scalar loop.
                small = mag <= _ASYMPTOTIC_TOL * np.abs(total)
                if test:
                    keep &= ~small
                reached = small & ~keep
                out[idx[reached]] = total[reached]
                ok[idx[reached]] = True
                idx, arg, total = idx[keep], arg[keep], total[keep]
                nxt, nmag = nxt[keep], nmag[keep]
                if not idx.size or k == max_terms:
                    break
                ratio = make_ratio(arg)
            term, mag = nxt, nmag
            total = total + term
    return out, ok


def _require_finite_array(z: np.ndarray, name: str) -> None:
    # A non-finite argument has no series value: fail before summing NaNs.
    if not np.isfinite(z).all():
        raise ConvergenceError(f"vectorized {name} path has no series at non-finite z")


def _growth(p: float, q: float, r: float, x: float) -> float:
    # Bound on |p + k| x / ((q + k)(r + k)) over k >= 0: for q, r > 0,
    # |p + k|/(q + k) <= max(1, |p|/q) and x/(r + k) <= x/r.
    if q <= 0.0 or r <= 0.0:
        return math.inf
    return max(1.0, abs(p) / q) * x / r


def _series_1f1_array(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zmax = float(np.abs(z).max())
    return _series_array(
        _kummer_ratio(a, b, z),
        np.ones_like(z),
        _kmin(a, b, 1.0, zmax),
        _growth(a, b, 1.0, zmax),
        lambda: f"1F1 series (a={a}, b={b}); worst |z|={zmax:g}",
    )


def _hyp1f1_asymptotic_array(a: float, b: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Elementwise _hyp1f1_asymptotic: (values, ok), ok False where the Kummer
    # series has to serve instead.
    coefs = _kummer_asymptotic_coefs(a, b)
    if coefs is None:
        return np.zeros_like(u), np.zeros(u.shape, dtype=bool)
    dom, sub = coefs
    ones = np.ones_like(u)
    s1, ok1 = _asymptotic_array(partial(_f20_ratio, a, a - b + 1.0), 1.0 / u, ones)
    s2, ok2 = _asymptotic_array(partial(_f20_ratio, b - a, 1.0 - a), -1.0 / u, ones)
    lnu = np.log(u)
    lmag = math.log(abs(dom)) - a * lnu
    direct = (np.abs(a * lnu) < -_DIRECT_EXP_LIMIT) & (np.abs(lmag) < -_DIRECT_EXP_LIMIT)
    with np.errstate(over="ignore", under="ignore"):
        vals = np.where(
            direct,
            dom * u**-a,
            np.where(lmag > _EXP_UNDERFLOW, np.copysign(np.exp(np.minimum(lmag, 700.0)), dom), 0.0),
        ) * s1
        if sub != 0.0:
            lsub = math.log(abs(sub)) - u + (a - b) * lnu
            vals += np.where(
                lsub > _EXP_UNDERFLOW, np.copysign(np.exp(np.minimum(lsub, 700.0)), sub), 0.0
            ) * s2
    return vals, ok1 & ok2


def _hyp1f1_array(a: float, b: float, z: np.ndarray) -> np.ndarray:
    _require_no_pole(b, ParameterError, "b")
    z = np.asarray(z, dtype=np.float64)
    if np.any(z > 0.0):
        raise DomainError("vectorized 1F1 path expects z <= 0")
    _require_finite_array(z, "1F1")
    out = np.empty_like(z)
    near = z >= -1.0
    if near.any():
        total, n2 = _series_1f1_array(a, b, z[near])
        out[near] = np.ldexp(total, n2.astype(np.int32))
    far = ~near
    big = np.flatnonzero(z <= -_ASYMPTOTIC_LIMIT)
    if big.size:
        vals, ok = _hyp1f1_asymptotic_array(a, b, -z[big])
        out[big[ok]] = vals[ok]
        far[big[ok]] = False
    if far.any():
        zf = z[far]
        total, n2 = _series_1f1_array(b - a, b, -zf)
        abst = np.abs(total)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mag = zf + np.log(np.where(abst > 0.0, abst, 1.0)) + n2 * _LN2
            vals = np.where(
                (n2 == 0) & (zf > _DIRECT_EXP_LIMIT),
                np.exp(zf) * total,
                np.where(
                    (abst > 0.0) & (mag > _EXP_UNDERFLOW),
                    np.copysign(np.exp(np.minimum(mag, 700.0)), total),
                    0.0,
                ),
            )
        out[far] = vals
    return out


def _kernel_array(a: float, u: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_kernel` over an array of u >= 0 (integer arrays
    are read as float64)."""
    u = np.asarray(u, dtype=np.float64)
    _require_finite_array(u, "kernel")
    out = np.empty_like(u)
    describe = lambda: f"kernel series (a={a})"  # noqa: E731
    near = u <= 1.0
    if near.any():
        un = u[near]
        x = float(un.max())
        kmin, growth = _kmin(a + 1.0, 1.5, 2.0, x), _growth(a + 1.0, 1.5, 2.0, x)
        ratio = _kernel_ratio(a, -un)
        total, _ = _series_array(ratio, np.ones_like(un), kmin, growth, describe)
        out[near] = 2.0 * un * total
    rest = ~near
    if not (a >= 0.5 and float(a - 0.5).is_integer()):
        mid = rest & (u < _ASYMPTOTIC_LIMIT)
        if mid.any():
            um = u[mid]
            x = float(um.max())
            total, _ = _series_array(
                lambda k: um / (k + 2.0), um.copy(), x, x / 2.0, describe, _kummer_brackets(a)
            )
            out[mid] = np.exp(-um) * total
        big = np.flatnonzero(u >= _ASYMPTOTIC_LIMIT)
        rest = np.zeros(u.shape, dtype=bool)
        if big.size:
            ub = u[big]
            tail, ok = _asymptotic_array(partial(_kernel_tail_ratio, a), 1.0 / ub, (a + 0.5) / ub)
            deficit, r, s_bound = _kernel_asymptotic_parts(a, ub, np)
            vals = deficit - r * tail
            ok &= s_bound <= _ASYMPTOTIC_TOL * np.abs(vals)
            out[big[ok]] = vals[ok]
            rest[big[~ok]] = True
    if rest.any():
        # As in _kernel.
        if a == 0.0:
            raise ConvergenceError(
                f"vectorized {describe()} did not converge within {_MAX_TERMS} terms"
            )
        out[rest] = (1.0 - _hyp1f1_array(a, 0.5, -u[rest])) / a
    return out
