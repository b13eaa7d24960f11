"""Scalar convex functions, subgradients, and proximity operators.

The proximity operator of a proper convex function f at a point x is the
unique minimizer of

    u  ->  f(u) + (u - x)^2 / 2.

Closed forms are provided for the handful of energies the samplers need
(weighted absolute value, absolute value plus a quadratic, and the shifted
l1-plus-quadratic energy used for wavelet denoising).  The power law
|u|**p / gamma has closed forms for p = 1, 3/2 and 2 (Chaux, Combettes,
Pesquet & Wajs 2007, *A variational formulation for frame-based inverse
problems*; Combettes & Pesquet 2011, *Proximal splitting methods in signal
processing*, Table 10.2) and a safeguarded Newton solve for other
exponents.  The operators take scalars or arrays and work elementwise.  A
bracketing solver, Brent's method finished in 30-digit arithmetic, doubles
as an independent check on every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScalarConvexFn",
    "abs_fn",
    "scaled_abs_fn",
    "power_fn",
    "quad_l1_fn",
    "custom_fn",
    "subgrad_abs_sample",
    "prox_soft_threshold",
    "prox_power",
    "prox_quad_l1",
    "prox_denoise_energy",
    "prox_numeric_oracle",
]

_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = 2.0**-52
_MAX_BRACKET = 2.0**60


@dataclass(frozen=True)
class ScalarConvexFn:
    """A proper convex function on the real line.

    ``fn`` evaluates the function and must be convex; nothing here verifies
    that, but the test suite samples the secant inequality for every built-in.
    """

    fn: Callable[[float], float]

    def __call__(self, u: float) -> float:
        return self.fn(u)


def abs_fn() -> ScalarConvexFn:
    """|u|."""
    return ScalarConvexFn(abs)


def scaled_abs_fn(t: float) -> ScalarConvexFn:
    """t * |u| for t > 0."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"scale must be finite and positive, got {t}")
    return ScalarConvexFn(lambda u: t * abs(u))


def power_fn(gamma: float, p: float) -> ScalarConvexFn:
    """|u|**p / gamma for gamma > 0 and p >= 1."""
    _check_power_params(gamma, p)
    return ScalarConvexFn(lambda u: abs(u) ** p / gamma)


def quad_l1_fn(a: float, b: float) -> ScalarConvexFn:
    """a * |u| + b * u**2 for a > 0, b >= 0."""
    _check_quad_l1_params(a, b)
    return ScalarConvexFn(lambda u: a * abs(u) + b * u * u)


def custom_fn(evaluator: Callable[[float], float]) -> ScalarConvexFn:
    """Wrap an arbitrary convex evaluator (convexity is the caller's promise)."""
    return ScalarConvexFn(evaluator)


def _check_power_params(gamma: float, p: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")


def _check_quad_l1_params(a: float, b: float) -> None:
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be finite and positive, got {a}")
    if not (math.isfinite(b) and b >= 0):
        raise ValueError(f"b must be finite and non-negative, got {b}")


def subgrad_abs_sample(x, rng: np.random.Generator):
    """Draw an element of the subdifferential of u -> |u| at x.

    Away from zero the subdifferential is the singleton {sign(x)}; at zero it
    is the whole interval [-1, 1], from which a point is drawn uniformly.
    Accepts scalars or arrays (elementwise).  A scalar of any type is taken
    as a float and answered without numpy, with the same value and the same
    draw as a one-element array.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if x == 0.0:
            return rng.uniform(-1.0, 1.0)
        if not math.isfinite(x):
            raise ValueError("subgradient sampling requires finite input")
        return 1.0 if x > 0.0 else -1.0
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("subgradient sampling requires finite input")
    out = np.sign(arr)
    zero = arr == 0.0
    nzero = int(np.count_nonzero(zero))
    if nzero:
        out[zero] = rng.uniform(-1.0, 1.0, size=nzero)
    return out


def prox_soft_threshold(x, t: float):
    """Soft thresholding, the proximity operator of u -> t * |u|.

    Shrinks x toward zero by t and clips the dead zone [-t, t] to zero.
    Accepts scalars or arrays.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"threshold must be finite and positive, got {t}")
    arr = np.asarray(x, dtype=float)
    out = np.sign(arr) * np.maximum(np.abs(arr) - t, 0.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def prox_power(x, gamma: float, p: float):
    """Proximity operator of u -> |u|**p / gamma, elementwise.

    The minimizer shares the sign of x, and its magnitude u is the root in
    [0, |x|] of the stationarity equation

        (p / gamma) * u**(p - 1) + u = |x|.

    Three exponents have closed forms (Chaux, Combettes, Pesquet & Wajs 2007;
    Combettes & Pesquet 2011, Table 10.2), each evaluated without
    cancellation.  With c = p / gamma:

        p = 1    soft thresholding at 1 / gamma,
        p = 2    x * (gamma / (gamma + 2)),
        p = 3/2  the equation is quadratic in s = sqrt(u), so
                 s = 2|x| / (c + sqrt(c**2 + 4|x|)) and u = s**2.

    Every other exponent is solved coordinate by coordinate with a
    safeguarded Newton iteration (``_power_stationary_point``).  Accepts
    scalars or arrays; gamma, p and finiteness are checked once per call,
    and a scalar input returns a float.
    """
    _check_power_params(gamma, p)
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"x must be finite, got {x}")
    if p == 1.0:
        return prox_soft_threshold(x, 1.0 / gamma)
    if p == 2.0:
        # The factor lies in (0, 1]: no overflow, and no underflow but the prox's own.
        out = arr * (gamma / (gamma + 2.0))
    elif p == 1.5:
        s = _sqrt_prox_p32(arr, 0.75 / gamma)
        out = np.copysign(s * s, arr)
    else:
        out = np.copysign(_power_roots(np.abs(arr), gamma, p), arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _power_kick(gamma: float, p: float):
    """The kick x -> x - prox_power(x, gamma, p), built once for gamma and p.

    By the stationarity equation the residual is (p / gamma) * sign(x) *
    u**(p - 1), with u the magnitude of the prox:

        p = 1    clip(x, -1/gamma, 1/gamma),
        p = 2    x / d with d = (gamma + 2) / 2 >= 1, so never above |x|,
        p = 3/2  (3 / (2 gamma)) * sign(x) * s, with s = sqrt(u) from the
                 closed form of ``prox_power`` (``_sqrt_prox_p32``),
        other p  (p / gamma) * sign(x) * u**(p - 1) from the Newton root u,
                 capped at |x|.

    The true residual |x| - u never exceeds |x|, but the rounded power can,
    by an ulp where u is below an ulp of |x|, and near the largest double it
    can overflow (with numpy's overflow warning unless the caller silences
    it, as ``run_chain`` does); the cap returns |x| there, so a finite x
    always gets a finite residual.

    The constants are fixed here.  A float (or numpy float scalar) gets
    them as Python floats, and at p = 1 and 2 a Python float back; an
    array gets them as 0-d float64 arrays, the same bits without numpy's
    per-call conversion of a Python scalar (NEP 50).
    """
    c = p / gamma
    if p == 1.0:
        t = 1.0 / gamma
        t_arr, neg_t_arr = np.array(t), np.array(-t)

        def kick(x):
            if isinstance(x, float):
                # np.clip's value, NaN included, without a call.
                return t if x > t else -t if x < -t else x
            return np.minimum(np.maximum(x, neg_t_arr), t_arr)

    elif p == 2.0:
        d = (gamma + 2.0) / 2.0
        d_arr = np.array(d)

        def kick(x):
            if isinstance(x, float):
                return x / d
            return x / d_arr

    elif p == 1.5:
        k = 0.75 / gamma
        c_arr, k_arr = np.array(c), np.array(k)

        def kick(x):
            if isinstance(x, float):
                return c * _sqrt_prox_p32(x, k)
            # _sqrt_prox_p32 written out: the call costs 2% of a d = 16 chain.
            return c_arr * (x / (k_arr + np.hypot(k_arr, np.sqrt(np.abs(x)))))

    else:
        pm1 = p - 1.0
        c_arr, pm1_arr = np.array(c), np.array(pm1)

        def kick(x):
            if isinstance(x, float):
                a = abs(float(x))
                u = _power_stationary_point(a, gamma, p)
                return np.copysign(min(c * np.power(u, pm1), a), x)
            a = np.abs(x)
            u = _power_roots(a, gamma, p)
            return np.copysign(np.minimum(c_arr * np.power(u, pm1_arr), a), x)

    return kick


def _sqrt_prox_p32(x, k):
    """sign(x) * s with s = sqrt(|prox_power(x, gamma, 3/2)|), k = 0.75 / gamma.

    s = |x| / (k + hypot(k, sqrt|x|)); dividing x itself carries its sign,
    zero's included, with no copysign pass.  No ``out=``, so a float works.
    """
    # sqrt(c**2 + 4|x|) / 2 = hypot(c / 2, sqrt(|x|)), which cannot overflow.
    return x / (k + np.hypot(k, np.sqrt(np.abs(x))))


def _power_roots(a, gamma: float, p: float) -> np.ndarray:
    """``_power_stationary_point`` at every element of the array a >= 0."""
    roots = [_power_stationary_point(v, gamma, p) for v in np.ravel(a).tolist()]
    return np.array(roots).reshape(np.shape(a))


def _power_stationary_point(a: float, gamma: float, p: float) -> float:
    """Root u >= 0 of (p/gamma) u**(p-1) + u = a for a >= 0, p > 1.

    The equation is solved for a variable in which it is convex: w = u for
    p > 2, and w = u**(p-1) for p < 2, where it reads
    (p/gamma) w + w**(1/(p-1)) = a.  Either way it has the form
    lin * w + nonlin * w**r = a with r > 1, whose left side is convex and
    increasing from 0.  Newton's method started above the root then
    descends onto it without overshooting.  The start min(a / lin,
    (a / nonlin)**(1/r)) bounds the root from above, since each term
    alone is below a, and lies within a factor of two of it, so a few
    steps suffice at any scale of a.  Steps that leave the bracket
    established by the signs seen so far fall back to bisection, which
    guards against rounding.  The stopping rule is relative: the iteration
    ends once a step moves w by less than 1e-9 of its value, after which
    quadratic convergence leaves only rounding error, so tiny roots are as
    accurate as large ones.
    """
    c = p / gamma
    if p < 2.0:
        lin, nonlin, r = c, 1.0, 1.0 / (p - 1.0)
    else:
        lin, nonlin, r = 1.0, c, p - 1.0
    w = min(a / lin, (a / nonlin) ** (1.0 / r))
    lo, hi = 0.0, math.inf
    for _ in range(100):
        try:
            h = lin * w + nonlin * w**r - a
        except OverflowError:
            # w**r exceeds the largest double, so h is +inf: w lies above
            # the root, and bisection takes it back into range.
            hi = w
            w = 0.5 * (lo + hi)
            continue
        if h > 0.0:
            hi = w
        elif h < 0.0:
            lo = w
        else:
            break
        step = h / (lin + nonlin * r * w ** (r - 1.0))
        w -= step
        if abs(step) <= 1e-9 * w:
            break
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
    if p >= 2.0:
        return min(w, a)
    # w**r multiplies the rounding error of w by r; once u exceeds a / r,
    # the identity u = a - c * w loses less.
    try:
        u = w**r
    except OverflowError:  # u is near the largest double, and above a / r
        u = math.inf
    if r * u > a:
        u = a - lin * w
    return min(u, a)


def prox_quad_l1(x, a: float, b: float):
    """Proximity operator of u -> a * |u| + b * u**2.

    Soft thresholds at a and then shrinks by the quadratic factor 1 + 2b:
    sign(x) * max(|x| - a, 0) / (1 + 2b).  Accepts scalars or arrays.
    """
    _check_quad_l1_params(a, b)
    arr = np.asarray(x, dtype=float)
    out = np.sign(arr) * np.maximum(np.abs(arr) - a, 0.0) / (1.0 + 2.0 * b)
    if np.ndim(x) == 0:
        return float(out)
    return out


def prox_denoise_energy(
    x: np.ndarray, obs_coeffs: np.ndarray, alpha: float, lam: float
) -> np.ndarray:
    """Proximity operator of the wavelet denoising energy, componentwise.

    The energy is U(u) = ||u||_1 / lam + alpha * ||u - c||^2 / 2 with c the
    wavelet coefficients of the observation.  Completing the square gives

        p_i = soft_threshold((x_i + alpha * c_i) / (1 + alpha), 1 / (lam * (1 + alpha))).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    x = np.asarray(x, dtype=float)
    c = np.asarray(obs_coeffs, dtype=float)
    if x.shape != c.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {c.shape}")
    shifted = (x + alpha * c) / (1.0 + alpha)
    return prox_soft_threshold(shifted, 1.0 / (lam * (1.0 + alpha)))


def _brent_minimize(h, a, b, x, hx, tol):
    """Brent's minimization of a unimodal h on [a, b] from an interior x.

    Parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is unreliable (Brent 1973,
    ch. 5).  ``hx`` is h(x).  Points and the values of h are floats; h may
    compute in higher precision inside.  Stops once [a, b] lies within
    ``2 * (tol + eps * |x|)`` of the best point x, which is returned, so x
    is that close to the minimizer.
    """
    w = v = x
    hw = hv = hx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = tol + _EPS * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (hx - hv)
            q = (x - v) * (hx - hw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Take the parabola's step only if it lands inside (a, b) and is
            # under half the step before last, which forces convergence.
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
            if parabolic:
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        hu = h(u)
        if hu <= hx:
            if u >= x:
                a = x
            else:
                b = x
            v, hv, w, hw, x, hx = w, hw, x, hx, u, hu
        else:
            if u < x:
                a = u
            else:
                b = u
            if hu <= hw or w == x:
                v, hv, w, hw = w, hw, u, hu
            elif hu <= hv or v == x or v == w:
                v, hv = u, hu


def prox_numeric_oracle(f: ScalarConvexFn, x: float, tol: float = 1e-10) -> float:
    """Minimize f(u) + (u - x)^2 / 2 by bracketing plus Brent's method.

    The bracket starts at [x - |x| - 1, x + |x| + 1] and doubles outward
    until the midpoint value drops below both endpoint values, which for a
    convex objective certifies an interior minimizer.  Brent's method
    (parabolic steps with a golden-section fallback) then locates it.

    Double precision alone cannot place a minimizer this accurately from
    function values (comparisons drown in rounding noise once the points
    are closer than about sqrt(eps * g)), so the search runs twice: in
    doubles to about 5e-7, then again on a safely padded interval around
    that estimate, with the objective evaluated in 30-digit mpmath
    arithmetic until the minimizer is pinned to ``tol / 50``.  The second
    search keeps its points as float offsets from the 30-digit centre and
    works on the objective's change from that centre, rounded to a double;
    near the minimizer that change is tiny, so the rounding is too.  The
    evaluator therefore sees ``mpmath.mpf`` arguments during that stage;
    plain arithmetic on them works unchanged.  It never consults a closed
    form; this is the reference other operators are tested against.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    fn = f.fn

    def g(u):
        return fn(u) + 0.5 * (u - x) * (u - x)

    lo = x - abs(x) - 1.0
    hi = x + abs(x) + 1.0
    glo, ghi = g(lo), g(hi)
    while True:
        if hi - lo > _MAX_BRACKET:
            raise ValueError(
                "bracket expansion exceeded 2**60: objective has no minimizer "
                "(is the function convex?)"
            )
        gmid = g(0.5 * (lo + hi))
        if gmid <= glo and gmid <= ghi:
            break
        width = hi - lo
        if glo < ghi:
            lo -= width
            glo = g(lo)
        else:
            hi += width
            ghi = g(hi)

    # Coarse stage in doubles: cheap, and reliable to within about 5e-7.
    mid = _brent_minimize(g, lo, hi, 0.5 * (lo + hi), gmid, 2.5e-7)
    # The quadratic term keeps the curvature of g at or above 1, so double
    # precision misplaces the coarse estimate by at most about sqrt(eps * g);
    # this pad clears that and the 5e-7 error with two decades to spare.
    pad = 1e-5 * (1.0 + math.sqrt(abs(g(mid)) + 1.0))

    import mpmath

    with mpmath.workdps(30):
        centre = mpmath.mpf(mid)

        def g_mp(u):
            return fn(u) + (u - x) * (u - x) / 2

        g_centre = g_mp(centre)

        def change(delta):
            return float(g_mp(centre + delta) - g_centre)

        delta = _brent_minimize(change, -pad, pad, 0.0, 0.0, tol / 100)
        return float(centre + delta)
