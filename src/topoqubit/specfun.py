"""Real-argument special functions with controlled accuracy.

Gamma, Kummer's confluent hypergeometric M(a;b;z), the specialized
hypergeometric 2F2({1,1};{3/2,2};z), their z-derivatives, and the Dawson
integral: everything the dephasing kernel needs, in plain double precision
with compensated series summation.  Arbitrary-precision cross-checks live in
the test suite, never here, so the runtime footprint stays numpy-only.

All functions are pure; concurrent use is unrestricted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, PoleError

__all__ = [
    "EvalOptions",
    "DEFAULT_OPTIONS",
    "gamma",
    "hyp1f1",
    "dhyp1f1_dz",
    "hyp2f2_11_32_2",
    "dhyp2f2_11_32_2_dz",
    "dawson",
]

_LN2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)

# Series accumulators are rescaled by 2**-1024 past this magnitude; the
# shifted exponent is reassembled in log space at the end.
_RESCALE_LIMIT = 1e250
_RESCALE_BITS = 1024

# exp() underflows to zero a little below exp(-745); products e^z * total are
# formed directly only when safely inside the normal range.
_EXP_UNDERFLOW = -745.0
_DIRECT_EXP_LIMIT = -700.0

# Direct alternating series for the specialized 2F2 is well conditioned only
# for small |z|; beyond this the all-positive resummation takes over.
_F22_DIRECT_LIMIT = 8.0

# From u = -z >= this on, large-u expansions replace the series, which need
# about u terms.  Below it the expansions lose digits at the parameters the
# kernel uses (2.5e-10 at u = 40, Q = 3.9).
_ASYMPTOTIC_LIMIT = 60.0
# An asymptotic sum is truncated at its first term below this share of it.
_ASYMPTOTIC_TOL = 1e-17
# int_0^X D(y) dy - (ln X)/2 -> (gamma_E + 2 ln 2)/4 as X -> infinity.
_DAWSON_INTEGRAL_CONST = (np.euler_gamma + 2.0 * _LN2) / 4.0

# Rybicki sampling parameters for the Dawson integral: step h and half-width
# (in units of h) of the window kept around x.  The sampling error scales as
# exp(-pi^2/(4 h^2)) ~ 2e-27, the truncation error as exp(-(window*h)^2).
_DAWSON_H = 0.2
_DAWSON_TAYLOR_LIMIT = 0.5
_DAWSON_WINDOW = 60


@dataclass(frozen=True, slots=True)
class EvalOptions:
    """Accuracy controls for series evaluation.

    Parameters
    ----------
    rel_tol : float
        Target relative tolerance; a series stops once two consecutive terms
        drop below ``rel_tol`` times the running sum.
    max_terms : int
        Hard cap on series length before ConvergenceError is raised.
    """

    rel_tol: float = 1e-13
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_OPTIONS = EvalOptions()


def _require_no_pole(x: float, exc: type, name: str) -> None:
    # Non-positive integers are poles of Gamma; reject anything within 1e-12.
    if x < 0.5:
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) <= 1e-12:
            raise exc(f"{name}={x!r} is within 1e-12 of the pole at {nearest}")


def gamma(x: float) -> float:
    """Gamma function on the real line, poles rejected.

    Raises
    ------
    PoleError
        If ``x`` lies within 1e-12 of a non-positive integer.
    DomainError
        If Gamma(x) overflows the double range (x > ~171.6).
    """
    _require_no_pole(x, PoleError, "x")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x!r}) overflows the double range") from None


def _series(ratio, first: float, kmin: float, opts: EvalOptions, describe) -> tuple[float, int]:
    """Kahan-summed ratio series: term_0 = ``first``, term_{k+1} = term_k * ratio(k).

    Stops once two consecutive terms drop below ``rel_tol`` times the running
    sum and k >= ``kmin``.  Returns (total, n2) meaning total * 2**n2.
    ``describe()`` names the series in the error raised when the term budget
    runs out; it is a callable so that no message is formatted otherwise.
    """
    rel_tol = opts.rel_tol
    total = first
    term = first
    comp = 0.0
    n2 = 0
    small_run = 0
    for k in range(opts.max_terms):
        term *= ratio(k)
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
        if abs_total > _RESCALE_LIMIT or abs_term > _RESCALE_LIMIT:
            total = math.ldexp(total, -_RESCALE_BITS)
            term = math.ldexp(term, -_RESCALE_BITS)
            comp = math.ldexp(comp, -_RESCALE_BITS)
            n2 += _RESCALE_BITS
    raise ConvergenceError(
        f"{describe()} did not reach rel_tol={opts.rel_tol} within {opts.max_terms} terms"
    )


# Term ratios term_{k+1} / term_k of the summed series.  Each accepts a float
# or an ndarray z, so the scalar and the array loop share one formula.


def _kummer_ratio(a: float, b: float, z):
    return lambda k: (a + k) * z / ((b + k) * (k + 1.0))


def _f22_ratio(z):
    return lambda k: (1.0 + k) * z / ((1.5 + k) * (2.0 + k))


def _df22_ratio(z):
    # Term-wise derivative of 2F2: (1/3) 2F2({2,2};{5/2,3};z).
    return lambda k: (2.0 + k) * (2.0 + k) * z / ((2.5 + k) * (3.0 + k) * (1.0 + k))


def _f20_ratio(p: float, q: float, w):
    # 2F0(p, q;; w), the asymptotic series of Kummer's function.
    return lambda k: (p + k) * (q + k) * w / (k + 1.0)


def _dawson_integral_ratio(u):
    # Tail of int_0^X D(y) dy at X = sqrt(u): terms (1/2)_k / (4k u^k), k >= 1.
    return lambda k: (k + 1.5) * (k + 1.0) / ((k + 2.0) * u)


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


def _asymptotic(ratio, first: float, opts: EvalOptions) -> float | None:
    """Asymptotic ratio series truncated at its first term below
    ``_ASYMPTOTIC_TOL`` of the sum; None if the terms grow before that (the
    expansion cannot reach double precision there) or the budget runs out.
    """
    total = term = first
    for k in range(opts.max_terms):
        nxt = term * ratio(k)
        if abs(nxt) > abs(term):
            return None
        term = nxt
        total += term
        if abs(term) <= _ASYMPTOTIC_TOL * abs(total):
            return total
    return None


def _series_1f1(a: float, b: float, z: float, opts: EvalOptions) -> tuple[float, int]:
    return _series(
        _kummer_ratio(a, b, z), 1.0, 0.0, opts, lambda: f"1F1 series for (a={a}, b={b}, z={z})"
    )


def _hyp1f1_asymptotic(a: float, b: float, u: float, opts: EvalOptions) -> float | None:
    # M(a;b;-u) by the expansion of _kummer_asymptotic_coefs; None where the
    # Kummer series has to serve instead.
    coefs = _kummer_asymptotic_coefs(a, b)
    if coefs is None:
        return None
    dom, sub = coefs
    s1 = _asymptotic(_f20_ratio(a, a - b + 1.0, 1.0 / u), 1.0, opts)
    s2 = _asymptotic(_f20_ratio(b - a, 1.0 - a, -1.0 / u), 1.0, opts)
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


def hyp1f1(a: float, b: float, z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
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
        If ``b`` is within 1e-12 of a non-positive integer.
    ConvergenceError
        If the series budget is exhausted.
    """
    _require_no_pole(b, ParameterError, "b")
    if z == 0.0:
        return 1.0
    if z >= -1.0:
        total, n2 = _series_1f1(a, b, z, opts)
        return math.ldexp(total, n2)
    if -math.inf < z <= -_ASYMPTOTIC_LIMIT:
        val = _hyp1f1_asymptotic(a, b, -z, opts)
        if val is not None:
            return val
    total, n2 = _series_1f1(b - a, b, -z, opts)
    if n2 == 0 and z > _DIRECT_EXP_LIMIT:
        return math.exp(z) * total
    if total == 0.0:
        return 0.0
    mag = z + math.log(abs(total)) + n2 * _LN2
    if mag < _EXP_UNDERFLOW:
        return 0.0
    return math.copysign(math.exp(mag), total)


def dhyp1f1_dz(a: float, b: float, z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """d/dz of M(a;b;z) via the contiguous relation dM/dz = (a/b) M(a+1;b+1;z)."""
    _require_no_pole(b, ParameterError, "b")
    return (a / b) * hyp1f1(a + 1.0, b + 1.0, z, opts)


def _f22_resummed(u: float, opts: EvalOptions) -> float:
    # 2F2({1,1};{3/2,2};-u) = (1/u) * sum_k P(k+1, u)/(2k+1) with P the
    # regularized lower incomplete gamma (equivalently 1 - Poisson CDF).
    # Every term is positive, so no cancellation occurs for any u.
    lnu = math.log(u)
    total = 0.0
    comp = 0.0
    cdf = 0.0
    for k in range(opts.max_terms):
        lp = -u + k * lnu - math.lgamma(k + 1.0)
        if lp > _EXP_UNDERFLOW:
            cdf += math.exp(lp)
        p = 1.0 - cdf
        if p < 0.0:
            p = 0.0
        term = p / (2.0 * k + 1.0)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if k > u and term <= opts.rel_tol * total:
            return total / u
    raise ConvergenceError(
        f"2F2 resummation at z={-u} did not converge within {opts.max_terms} "
        f"terms; enlarge max_terms for |z| this large"
    )


def _f22_far(u: float, opts: EvalOptions) -> float:
    # 2F2({1,1};{3/2,2};-u) = (2/u) int_0^sqrt(u) D(y) dy, whose large-u
    # expansion is (2/u) [ln(u)/4 + (gamma_E + 2 ln 2)/4 - tail].
    if _ASYMPTOTIC_LIMIT <= u < math.inf:
        tail = _asymptotic(_dawson_integral_ratio(u), 0.125 / u, opts)
        if tail is not None:
            return 2.0 * (0.25 * math.log(u) + _DAWSON_INTEGRAL_CONST - tail) / u
    return _f22_resummed(u, opts)


def hyp2f2_11_32_2(z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """The specialized hypergeometric 2F2({1,1}; {3/2,2}; z) for z <= 0.

    Direct compensated series for z >= -8; for more negative arguments an
    exact all-positive resummation in terms of regularized incomplete gamma
    functions, immune to the e^{|z|} cancellation of the raw series; for
    z <= -60 the large-argument expansion of the Dawson-integral form
    2F2(-u) = (2/u) int_0^sqrt(u) D(y) dy.

    Raises
    ------
    DomainError
        If z > 0.
    ConvergenceError
        If the series budget is exhausted.
    """
    if z > 0.0:
        raise DomainError(f"hyp2f2_11_32_2 requires z <= 0, got {z}")
    if z == 0.0:
        return 1.0
    if z >= -_F22_DIRECT_LIMIT:
        # Alternating series, safe for |z| <= _F22_DIRECT_LIMIT.
        total, _ = _series(_f22_ratio(z), 1.0, abs(z), opts, lambda: f"2F2 series at z={z}")
        return total
    return _f22_far(-z, opts)


def dhyp2f2_11_32_2_dz(z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """d/dz of 2F2({1,1};{3/2,2};z) for z <= 0.

    Shifted-parameter series near zero; for z < -8 the exact identity
    d/dz 2F2(z)|_{z=-u} = 2F2(-u)/u - D(sqrt(u))/u^{3/2}, with D the Dawson
    integral, avoids the ill-conditioned direct series.
    """
    if z > 0.0:
        raise DomainError(f"dhyp2f2_11_32_2_dz requires z <= 0, got {z}")
    if z == 0.0:
        return 1.0 / 3.0
    if z >= -_F22_DIRECT_LIMIT:
        total, _ = _series(
            _df22_ratio(z), 1.0 / 3.0, abs(z), opts, lambda: f"2F2 derivative series at z={z}"
        )
        return total
    u = -z
    return _f22_far(u, opts) / u - dawson(math.sqrt(u)) / u**1.5


def dawson(x: float) -> float:
    """Dawson integral D(x) = e^{-x^2} integral_0^x e^{t^2} dt.

    Taylor series for |x| <= 0.5, Rybicki's equally-spaced sampling method
    up to x^2 = 60, and beyond it the asymptotic series
    D(x) ~ (1/2x) 2F0(1/2, 1;; 1/x^2); all accurate to a few ulps over the
    real line.
    """
    if x < 0.0:
        return -dawson(-x)
    u = x * x
    if u >= _ASYMPTOTIC_LIMIT and x < math.inf:
        total = _asymptotic(_f20_ratio(0.5, 1.0, 1.0 / u), 1.0, DEFAULT_OPTIONS)
        if total is not None:
            return 0.5 * total / x
    if x <= _DAWSON_TAYLOR_LIMIT:
        total = term = x
        k = 0
        while abs(term) > 1e-18 * abs(total):
            term *= -2.0 * x * x / (2.0 * k + 3.0)
            total += term
            k += 1
        return total
    h = _DAWSON_H
    span = _DAWSON_WINDOW * h
    n_lo = int(math.floor((x - span) / h))
    n_hi = int(math.ceil((x + span) / h))
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        if n % 2 == 0:
            continue
        d = x - n * h
        total += math.exp(-d * d) / n
    return total / _SQRT_PI


# ---------------------------------------------------------------------------
# Vectorized counterparts used by the dense-profile evaluator.  The same
# algorithms, elementwise over a numpy array of nonpositive arguments; term
# rescaling is applied per element so small-|z| entries are never squashed.
# They share only the term ratios and the expansion weights with the scalar
# loops above, which serve bisection and check this path's loops, stopping
# and branch assembly.
# ---------------------------------------------------------------------------


def _series_array(
    ratio, first: np.ndarray, kmin: float, opts: EvalOptions, describe
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`_series` with initial terms ``first``.

    An element is done once two consecutive terms are small; the loop stops
    when every element is done and k >= ``kmin``.
    """
    total = first
    term = first.copy()
    comp = np.zeros_like(first)
    n2 = np.zeros(first.shape, dtype=np.int64)
    done = np.zeros(first.shape, dtype=bool)
    small_prev = np.zeros(first.shape, dtype=bool)
    for k in range(opts.max_terms):
        term = term * ratio(k)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        small = np.abs(term) <= opts.rel_tol * np.abs(total)
        done |= small & small_prev
        if done.all() and k >= kmin:
            return total, n2
        small_prev = small
        big = (np.abs(total) > _RESCALE_LIMIT) | (np.abs(term) > _RESCALE_LIMIT)
        if big.any():
            total[big] = np.ldexp(total[big], -_RESCALE_BITS)
            term[big] = np.ldexp(term[big], -_RESCALE_BITS)
            comp[big] = np.ldexp(comp[big], -_RESCALE_BITS)
            n2[big] += _RESCALE_BITS
    raise ConvergenceError(
        f"vectorized {describe()} did not converge within {opts.max_terms} terms"
    )


def _asymptotic_array(
    ratio, first: np.ndarray, opts: EvalOptions
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`_asymptotic`: (sums, ok), ``ok`` False where the
    terms grew before reaching ``_ASYMPTOTIC_TOL`` of the sum."""
    total = first.copy()
    term = first.copy()
    active = np.ones(first.shape, dtype=bool)
    ok = np.zeros(first.shape, dtype=bool)
    for k in range(opts.max_terms):
        nxt = term * ratio(k)
        active &= np.abs(nxt) <= np.abs(term)
        term = np.where(active, nxt, 0.0)
        total = total + term
        done = active & (np.abs(term) <= _ASYMPTOTIC_TOL * np.abs(total))
        ok |= done
        active &= ~done
        if not active.any():
            break
    return total, ok


def _series_1f1_array(
    a: float, b: float, z: np.ndarray, opts: EvalOptions
) -> tuple[np.ndarray, np.ndarray]:
    return _series_array(
        _kummer_ratio(a, b, z),
        np.ones_like(z),
        0.0,
        opts,
        lambda: f"1F1 series (a={a}, b={b}); worst |z|={np.abs(z).max():g}",
    )


def _hyp1f1_asymptotic_array(
    a: float, b: float, u: np.ndarray, opts: EvalOptions
) -> tuple[np.ndarray, np.ndarray]:
    # Elementwise _hyp1f1_asymptotic: (values, ok), ok False where the Kummer
    # series has to serve instead.
    coefs = _kummer_asymptotic_coefs(a, b)
    if coefs is None:
        return np.zeros_like(u), np.zeros(u.shape, dtype=bool)
    dom, sub = coefs
    s1, ok1 = _asymptotic_array(_f20_ratio(a, a - b + 1.0, 1.0 / u), np.ones_like(u), opts)
    s2, ok2 = _asymptotic_array(_f20_ratio(b - a, 1.0 - a, -1.0 / u), np.ones_like(u), opts)
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


def _hyp1f1_array(a: float, b: float, z: np.ndarray, opts: EvalOptions) -> np.ndarray:
    _require_no_pole(b, ParameterError, "b")
    if np.any(z > 0.0):
        raise DomainError("vectorized 1F1 path expects z <= 0")
    out = np.empty_like(z)
    near = z >= -1.0
    if near.any():
        total, n2 = _series_1f1_array(a, b, z[near], opts)
        out[near] = np.ldexp(total, n2.astype(np.int32))
    far = ~near
    big = np.flatnonzero((z <= -_ASYMPTOTIC_LIMIT) & np.isfinite(z))
    if big.size:
        vals, ok = _hyp1f1_asymptotic_array(a, b, -z[big], opts)
        out[big[ok]] = vals[ok]
        far[big[ok]] = False
    if far.any():
        zf = z[far]
        total, n2 = _series_1f1_array(b - a, b, -zf, opts)
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


def _f22_resummed_array(u: np.ndarray, opts: EvalOptions) -> np.ndarray:
    lnu = np.log(u)
    total = np.zeros_like(u)
    comp = np.zeros_like(u)
    cdf = np.zeros_like(u)
    umax = float(u.max())
    for k in range(opts.max_terms):
        lp = -u + k * lnu - math.lgamma(k + 1.0)
        with np.errstate(under="ignore"):
            cdf = cdf + np.where(lp > _EXP_UNDERFLOW, np.exp(np.minimum(lp, 0.0)), 0.0)
        p = np.clip(1.0 - cdf, 0.0, None)
        term = p / (2.0 * k + 1.0)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if k > umax and (term <= opts.rel_tol * total).all():
            return total / u
    raise ConvergenceError(
        f"vectorized 2F2 resummation did not converge within {opts.max_terms} "
        f"terms; worst |z|={umax:g}"
    )


def _f22_far_array(u: np.ndarray, opts: EvalOptions) -> np.ndarray:
    # Elementwise _f22_far.
    out = np.empty_like(u)
    rest = np.ones(u.shape, dtype=bool)
    big = np.flatnonzero((u >= _ASYMPTOTIC_LIMIT) & np.isfinite(u))
    if big.size:
        ub = u[big]
        tail, ok = _asymptotic_array(_dawson_integral_ratio(ub), 0.125 / ub, opts)
        out[big] = 2.0 * (0.25 * np.log(ub) + _DAWSON_INTEGRAL_CONST - tail) / ub
        rest[big[ok]] = False
    if rest.any():
        out[rest] = _f22_resummed_array(u[rest], opts)
    return out


def _hyp2f2_array(z: np.ndarray, opts: EvalOptions) -> np.ndarray:
    if np.any(z > 0.0):
        raise DomainError("vectorized 2F2 path expects z <= 0")
    out = np.ones_like(z)
    near = (z < 0.0) & (z >= -_F22_DIRECT_LIMIT)
    if near.any():
        zn = z[near]
        out[near], _ = _series_array(
            _f22_ratio(zn), np.ones_like(zn), float(np.abs(zn).max()), opts, lambda: "2F2 series"
        )
    far = z < -_F22_DIRECT_LIMIT
    if far.any():
        out[far] = _f22_far_array(-z[far], opts)
    return out


def _dhyp2f2_array(z: np.ndarray, opts: EvalOptions) -> np.ndarray:
    if np.any(z > 0.0):
        raise DomainError("vectorized 2F2 derivative path expects z <= 0")
    out = np.full_like(z, 1.0 / 3.0)
    near = (z < 0.0) & (z >= -_F22_DIRECT_LIMIT)
    if near.any():
        zn = z[near]
        out[near], _ = _series_array(
            _df22_ratio(zn),
            np.full_like(zn, 1.0 / 3.0),
            float(np.abs(zn).max()),
            opts,
            lambda: "2F2 derivative series",
        )
    far = z < -_F22_DIRECT_LIMIT
    if far.any():
        u = -z[far]
        out[far] = _f22_far_array(u, opts) / u - _dawson_array(np.sqrt(u)) / u**1.5
    return out


def _dawson_array(x: np.ndarray) -> np.ndarray:
    # Rybicki sampling, vectorized, below x^2 = 60 and the asymptotic series
    # above; callers only reach this for x > 2.8 so no small-x Taylor branch
    # is needed.
    out = np.empty_like(x)
    rest = np.ones(x.shape, dtype=bool)
    big = np.flatnonzero((x * x >= _ASYMPTOTIC_LIMIT) & np.isfinite(x))
    if big.size:
        xb = x[big]
        total, ok = _asymptotic_array(
            _f20_ratio(0.5, 1.0, 1.0 / (xb * xb)), np.ones_like(xb), DEFAULT_OPTIONS
        )
        out[big] = 0.5 * total / xb
        rest[big[ok]] = False
    if rest.any():
        out[rest] = _dawson_sampled_array(x[rest])
    return out


def _dawson_sampled_array(x: np.ndarray) -> np.ndarray:
    h = _DAWSON_H
    center = 2.0 * np.floor(x / (2.0 * h)) + 1.0
    offsets = np.arange(-_DAWSON_WINDOW, _DAWSON_WINDOW + 2, 2, dtype=np.float64)
    n = center[None, :] + offsets[:, None]
    d = x[None, :] - n * h
    with np.errstate(under="ignore"):
        total = (np.exp(-d * d) / n).sum(axis=0)
    return total / _SQRT_PI
