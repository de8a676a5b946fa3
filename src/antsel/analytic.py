"""Closed-form distributions, series coefficients and quadrature for the
selection-outage asymptotics.

Dimension bookkeeping for an (n_t, n_r, L) link:

* ``m = (n_t - 1) * (n_r - 1)`` is the two-stream selection diversity
  order; the small-threshold outage of the bounding variable behaves as
  ``leading * x^m``.
* For general L the achievable diversity order lies between
  ``m_lower = (n_t - L + 1) * (n_r - L + 1)`` and
  ``m_upper = (n_t - L + 1) * (n_r - 1)``; the bounds coincide at L = 2.

Chi-square convention: :func:`chi2n_cdf` (x, n) is the law of the squared
norm of an n-dimensional unit-variance complex Gaussian vector, i.e.
Gamma(shape n, scale 1).  Every formula in this module uses that
convention.

Coefficients are evaluated with exact rational arithmetic and reduced to
floats at the boundary: the leading outage coefficient is a difference of
nearly equal terms, which cancels catastrophically in naive floating
point for large m.

Integrals run through :func:`adaptive_quadrature`, the module's own
adaptive Gauss-Kronrod 7/15 rule after QUADPACK (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, 1983), and the Gamma CDF at
integer shape and E_1 are the module's own series and continued fraction
(:func:`_gamma_cdf_int`, :func:`_exp1`), so the module needs numpy only.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .selection import check_selection

HALF_PI = math.pi / 2.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


#: Relative tolerance of :func:`adaptive_quadrature`, and the number of
#: subintervals in which each integral must meet it.
QUADRATURE_EPSREL = 1e-13
QUADRATURE_LIMIT = 400

# QUADPACK's qk15: the Kronrod nodes in [0, 1) of the rule on [-1, 1],
# whose even-indexed ones are the 7-point Gauss nodes, with the Kronrod and
# the Gauss weights; mirrored below into 15 nodes mapped onto [0, 1] and a
# (15, 2) weight matrix
_XGK = (0.0, 0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
        0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
        0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
        0.991455371120812639206854697526329)
_WGK = (0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
        0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
        0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
        0.063092092629978553290700663189204, 0.022935322010529224963732008058970)
_WG = (0.417959183673469387755102040816327, 0.0, 0.381830050505118944950369775488975, 0.0,
       0.279705391489276667901467771423780, 0.0, 0.129484966168869693270611432679082, 0.0)
_GK15_NODES = 0.5 + 0.5 * np.array([-x for x in _XGK[:0:-1]] + list(_XGK))
_GK15_WEIGHTS = np.array([[*w[:0:-1], *w] for w in (_WGK, _WG)]).T
_EPS = np.finfo(float).eps
_EULER_GAMMA = float(np.euler_gamma)
_ROUNDOFF_FLOOR = 50.0 * _EPS


def _gauss_kronrod(f, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 7/15 Gauss-Kronrod values and QUADPACK error estimates of f on
    the j intervals between the j + 1 increasing edges of each of the n
    rows of ``edges``, as two (n, j) arrays.  f is called once, on an
    (n, 15 j) array of all their nodes."""
    lo = edges[:, :-1].reshape(-1, 1)
    width = edges[:, 1:].reshape(-1, 1) - lo
    fx = f((lo + width * _GK15_NODES).reshape(len(edges), -1)).reshape(-1, 15)
    kronrod, gauss = np.dot(fx, _GK15_WEIGHTS).T
    resabs = np.dot(np.abs(fx), _GK15_WEIGHTS[:, 0])
    resasc = np.dot(np.abs(fx - 0.5 * kronrod[:, None]), _GK15_WEIGHTS[:, 0])
    err = 200.0 * np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):  # resasc is 0 only on a constant f
        err = np.fmin(resasc, err * np.sqrt(err / resasc))  # resasc * min(1, (200 err / resasc)^1.5)
    err = np.maximum(err, _ROUNDOFF_FLOOR * resabs)
    half = 0.5 * width.reshape(len(edges), -1)
    return kronrod.reshape(half.shape) * half, err.reshape(half.shape) * half


def adaptive_quadrature(f, a, b: float = math.inf):
    """integral_a^b f(w) dw to relative error QUADRATURE_EPSREL by adaptive
    Gauss-Kronrod 7/15 quadrature: QUADPACK's QAG, and for b = inf its QAGI
    map w = a + (1 - t)/t of t in (0, 1].

    ``a`` is one lower limit, or a 1-D array of n of them for n integrals
    evaluated side by side; ``f`` takes an (n, k) array of nodes, row i
    for integral i, and returns the integrand there.  Each integral keeps
    its own subintervals and running sums: each step bisects the one of
    largest error estimate and evaluates both halves, for all integrals in
    one call of f.  A value that is not finite, or an integral that misses
    the tolerance in ``QUADRATURE_LIMIT`` subintervals, raises
    :class:`QuadratureError`.  The result is a float for a scalar ``a``,
    else an array.
    """
    lower = np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    if b == math.inf:
        g = lambda t: f(lower + (1.0 - t) / t) / (t * t)  # noqa: E731
        ends = [(0.0, 1.0)] * len(lower)
    else:
        g, ends = f, [(lo, b) for lo in lower[:, 0].tolist()]

    def not_finite(i):
        return QuadratureError(f"quadrature from {lower[i, 0]} to {b} met a value that is not finite")

    # per integral: the subinterval of largest error estimate as (-error,
    # lo, hi, value), its bisection as the edges the next call evaluates,
    # and a heap of the other subintervals
    edges = [[lo, 0.5 * (lo + hi), hi] for lo, hi in ends]
    total, error = (v[:, 0].tolist() for v in _gauss_kronrod(g, np.array(ends)))
    for i, (t, e) in enumerate(zip(total, error)):
        if not math.isfinite(t + e):
            raise not_finite(i)
    worst = [(-e, lo, hi, v) for (lo, hi), v, e in zip(ends, total, error)]
    heaps = [[] for _ in ends]
    while open_ := [i for i, (t, e) in enumerate(zip(total, error)) if e > QUADRATURE_EPSREL * abs(t)]:
        values, errors = (v.tolist() for v in _gauss_kronrod(g, np.array(edges)))
        for i in open_:
            heap = heaps[i]
            if len(heap) + 1 >= QUADRATURE_LIMIT:
                raise QuadratureError(f"quadrature from {lower[i, 0]} to {b} reached relative error "
                                      f"{error[i] / abs(total[i]):.3e} in {QUADRATURE_LIMIT} subintervals")
            neg_err, lo, hi, value = worst[i]
            mid = edges[i][1]
            (v_lo, v_hi), (e_lo, e_hi) = values[i], errors[i]
            if not math.isfinite(v_lo + v_hi + e_lo + e_hi):
                raise not_finite(i)
            total[i] += v_lo + v_hi - value
            error[i] += e_lo + e_hi + neg_err
            heapq.heappush(heap, (-e_lo, lo, mid, v_lo))
            worst[i] = heapq.heappushpop(heap, (-e_hi, mid, hi, v_hi))
            lo, hi = worst[i][1:3]
            edges[i] = [lo, 0.5 * (lo + hi), hi]
    out = [math.fsum([w[3], *(entry[3] for entry in heap)]) for w, heap in zip(worst, heaps)]
    return out[0] if np.ndim(a) == 0 else np.array(out)


@dataclass(frozen=True)
class AnalyticSpec:
    """Dimension parameters with the derived diversity constants; the shape
    is checked as selection checks it (``selection.check_selection``)."""

    n_t: int
    n_r: int
    L: int = 2

    def __post_init__(self):
        check_selection(self.n_t, self.n_r, self.L)

    @property
    def m(self) -> int:
        """Two-stream selection diversity order (n_t - 1)(n_r - 1)."""
        return (self.n_t - 1) * (self.n_r - 1)

    @property
    def m_lower(self) -> int:
        return (self.n_t - self.L + 1) * (self.n_r - self.L + 1)

    @property
    def m_upper(self) -> int:
        return (self.n_t - self.L + 1) * (self.n_r - 1)

    @property
    def psi0(self) -> float:
        """Angle budget (pi/2)/(n_t - 1) splitting the quadrant across
        the n_t - 1 angles measured from one reference column."""
        if self.n_t < 2:
            raise ValueError("psi0 requires n_t >= 2")
        return HALF_PI / (self.n_t - 1)


def _like(x, out):
    """``out`` as a float when ``x`` is a scalar, else as it stands."""
    return float(out) if np.isscalar(x) else out


def _quadrant(theta, open_ends: bool) -> np.ndarray:
    """``theta`` as a float array, checked to lie in [0, pi/2], or strictly
    inside (0, pi/2) with ``open_ends``; nan lies in neither."""
    th = np.asarray(theta, dtype=float)
    if open_ends and not np.all((th > 0.0) & (th < HALF_PI)):
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    if not np.all((th >= 0.0) & (th <= HALF_PI)):
        raise ValueError("theta must lie in [0, pi/2]")
    return th


def _angle_order(n_r: int) -> int:
    """The order m = n_r - 1 of the angle law of a pair of n_r-dimensional
    complex Gaussian columns, sin^2(theta)^m (:func:`theta0_cdf`).  The
    pair needs n_r >= 2, checked as selection checks two streams."""
    check_selection(2, n_r, 2)
    return n_r - 1


def theta_pdf(theta, n_r: int):
    """Density of the angle between one column and another's span:
    :func:`theta0_pdf` of order n_r - 1, which is
    (n_r - 1) sin(2 theta) sin(theta)^(2 n_r - 4) on (0, pi/2)."""
    return theta0_pdf(theta, _angle_order(n_r))


def theta_cdf(theta, n_r: int):
    """Distribution function matching :func:`theta_pdf`: :func:`theta0_cdf`
    of order n_r - 1, sin(theta)^(2(n_r-1))."""
    return theta0_cdf(theta, _angle_order(n_r))


#: A series ends at its first term below this share of its sum: the
#: lower series of :func:`_gamma_cdf_int` (a sum of at least 1) at its
#: first coefficient below it, and the power series of :func:`_exp1`.  The
#: lower series runs in blocks of this many powers.
_SERIES_TAIL = 2.0 ** -56
_SERIES_BLOCK = 6


def _gamma_cdf_int(n: int, x) -> np.ndarray:
    """The Gamma(n, 1) CDF at integer shape n >= 1 and each x >= 0 (not
    nan), as an array of the shape of ``x``.

    Below x = n + 1 it is the Poisson(x) mass beyond n - 1: the head
    e^{-x} x^n / n!, formed as e^{-x} times a product of n factors x/k,
    times :func:`_lower_series`, whose terms fall by at least x / (n + 1).
    It keeps full relative precision where the CDF is tiny and reads 0.0
    where the head underflows.  From n + 1 up it is
    1 - sum_{k<n} e^{-x} x^k / k!, the masses formed as a running product
    from e^{-x}, so none overflows; it reads 1.0 once that sum is below
    half an ulp of 1.  Past x = 708, where e^{-x} leaves the normal range
    and loses precision, the sum is below 1e-16 for any shape up to 500.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    cdf = np.empty_like(flat)
    low = flat < n + 1
    if not low.all():
        high = np.minimum(flat[~low], sys.float_info.max)  # e^-inf * inf is nan; the CDF there is 1
        masses = np.empty((n, len(high)))
        masses[0] = np.exp(-high)
        np.divide(high, np.arange(1, n)[:, None], out=masses[1:])
        cdf[~low] = 1.0 - np.cumprod(masses, axis=0, out=masses).sum(axis=0)
    if low.any():
        xl = flat[low]
        head = np.exp(-xl) * np.prod(xl / np.arange(1, n + 1)[:, None], axis=0)
        cdf[low] = head * _lower_series(n, xl)
    return cdf.reshape(x.shape)


@functools.lru_cache(maxsize=None)
def _series_coefficients(n: int) -> np.ndarray:
    """c_k = prod_{j<=k} (n+1)/(n+j) for k = 0, 1, ... up to the first
    below ``_SERIES_TAIL``, zero-padded into rows of ``_SERIES_BLOCK``.

    Step k multiplies by (n+1)/(n+k), which is at most 1, and at most 1/2
    from k = n + 2 on, so c_{n+60} <= 2^-59 and the last is within n + 60
    steps."""
    c = np.cumprod(np.r_[1.0, (n + 1) / np.arange(n + 1, 2 * n + 61)])
    terms = int(np.argmax(c < _SERIES_TAIL)) + 1
    coef = np.zeros(-(-terms // _SERIES_BLOCK) * _SERIES_BLOCK)
    coef[:terms] = c[:terms]
    coef = coef.reshape(-1, _SERIES_BLOCK)
    coef.setflags(write=False)
    return coef


def _lower_series(n: int, x: np.ndarray) -> np.ndarray:
    """sum_k x^k / ((n+1)...(n+k)) at each 0 <= x < n + 1, as
    sum_k c_k u^k with u = x / (n + 1) < 1 and the coefficients of
    :func:`_series_coefficients`, so every omitted term is below
    ``_SERIES_TAIL`` times the sum.  One matrix product of the coefficient
    blocks and the powers u^0 .. u^(block-1) gives every block's partial
    sum, and Horner's rule in u^block joins them."""
    u = x / (n + 1)
    powers = u ** np.arange(_SERIES_BLOCK)[:, None]
    partial = _series_coefficients(n) @ powers
    step = powers[-1] * u
    total = partial[-1]
    for block in partial[-2::-1]:
        total = total * step + block
    return total


def _exp1(x: float) -> float:
    """The exponential integral E_1(x) = int_x^inf e^{-t} / t dt for x > 0:
    -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!) for x <= 1, else
    e^{-x} times the even continued fraction
    1/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))).

    The modified Lentz method (Press et al., Numerical Recipes, section
    6.3) runs the convergents until a step changes them by at most an ulp,
    and the fraction is then evaluated from twice that depth up.  Near
    x = 1 the convergents settle while the truncation error is still about
    2e-15 (x = 1.21), and the forward pass's running product rounds once
    per level; the deeper backward pass is within 3e-16 of E_1 on
    (1, 30].  The upward recursion of :func:`exp_integral` multiplies this
    error at x above the order.
    """
    if x <= 1.0:
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= -x / k
            total -= term / k
            if abs(term / k) < _SERIES_TAIL * total:
                return total - math.log(x) - _EULER_GAMMA
    tiny = 1e-300
    b = x + 1.0
    c, d = 1.0 / tiny, 1.0 / b
    depth = 0
    while True:
        depth += 1
        a = -float(depth * depth)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if abs(c * d - 1.0) <= _EPS:
            break
    tail = 0.0
    for i in range(2 * depth, 0, -1):
        tail = -float(i * i) / (x + 2.0 * i + 1.0 + tail)
    return math.exp(-x) / (x + 1.0 + tail)


def chi2n_cdf(x, n: int):
    """CDF 1 - e^{-x} sum_{k<n} x^k / k! of the Gamma(n, 1) law.

    This is the package's "chi-square with 2n degrees of freedom"; see the
    module docstring for the convention.  Negative x gives 0; nan raises
    ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"degrees parameter must be positive, got {n}")
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise ValueError("chi2n_cdf argument must not be nan")
    return _like(x, _gamma_cdf_int(n, np.maximum(x_arr, 0.0)))


def theta0_pdf(theta, m: int):
    """Density of the largest of the reference angles: m sin^2(theta)^(m-1) sin(2 theta).
    The one density of the sine-power angle law, of which the pair angle
    (:func:`theta_pdf`) is the order n_r - 1."""
    if m < 1:
        raise ValueError(f"order parameter must be positive, got {m}")
    th = _quadrant(theta, open_ends=True)
    return _like(theta, m * np.sin(th) ** (2 * (m - 1)) * np.sin(2 * th))


def theta0_cdf(theta, m: int):
    """Distribution function of the largest reference angle: sin^2(theta)^m,
    the one distribution function of the sine-power angle law."""
    if m < 1:
        raise ValueError(f"order parameter must be positive, got {m}")
    return _like(theta, np.sin(_quadrant(theta, open_ends=False)) ** (2 * m))


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Small-threshold polynomial data of the bounding outage variable.

    ``leading`` multiplies x^m in the expansion and equals
    1/m! - b_m with b_m = m * tail_sum and
    tail_sum = sum_{k=0}^{n_t-3} k! / (m+k+1)!  (empty for n_t = 2).
    ``c`` are the e^{-x}-weighted polynomial coefficients of the head
    part; ``a`` its raw Taylor coefficients, which collapse to
    a_0 = 1, a_n = 0 for 0 < n < m, a_m = -1/m!.

    Exact rational values are kept alongside the float reductions so
    positivity can be decided without rounding.
    """

    n_t: int
    n_r: int
    m: int
    leading: float
    b_m: float
    tail_sum: float
    c: tuple[float, ...]
    a: tuple[float, ...]
    leading_exact: Fraction
    tail_sum_exact: Fraction


def _tail_sum_exact(n_t: int, m: int) -> Fraction:
    total = Fraction(0)
    for k in range(0, n_t - 2):  # k = 0 .. n_t - 3; empty sum for n_t = 2
        total += Fraction(math.factorial(k), math.factorial(m + k + 1))
    return total


def leading_coefficient_exact(n_t: int, n_r: int) -> Fraction:
    """Exact leading coefficient 1/m! - m * tail_sum, without the
    polynomial bookkeeping of :func:`outage_coefficient`.  The two-stream
    shape n_t, n_r >= 2 is checked as selection checks it."""
    check_selection(n_t, n_r, 2)
    m = (n_t - 1) * (n_r - 1)
    return Fraction(1, math.factorial(m)) - m * _tail_sum_exact(n_t, m)


def outage_coefficient(n_t: int, n_r: int) -> ExpansionCoefficients:
    """All expansion coefficients for the (n_t, n_r) two-stream geometry.

    c_k = (m-k-1)! s_k / m! with the alternating binomial sum
    s_k = sum_{i<=k} (-1)^(k-i) C(m, i) = C(m, k) - s_{k-1}, and
    a_n = m sum_{k<=min(n, m-1)} c_k (-1)^(n-k) / (n-k)!, summed over
    integers as m sum_k (-1)^(n-k) (m-k-1)! s_k n!/(n-k)! / (m! n!).  Each
    float is the correctly rounded quotient of the exact integers, so the
    floats are those of the exact rationals; ``c`` costs O(m) integer
    terms and ``a`` O(m^2).
    """
    leading = leading_coefficient_exact(n_t, n_r)
    m = (n_t - 1) * (n_r - 1)
    tail = _tail_sum_exact(n_t, m)
    m_fact = math.factorial(m)
    numerators = []  # (m-k-1)! s_k, so c_k = numerators[k] / m!
    s = 0
    for k in range(m):
        s = math.comb(m, k) - s
        numerators.append(math.factorial(m - k - 1) * s)
    a = []
    for n in range(m + 1):
        total = sum((-1) ** (n - k) * numerators[k] * math.perm(n, k) for k in range(min(n, m - 1) + 1))
        a.append(m * total / (m_fact * math.factorial(n)))
    return ExpansionCoefficients(
        n_t=n_t,
        n_r=n_r,
        m=m,
        leading=float(leading),
        b_m=float(m * tail),
        tail_sum=float(tail),
        c=tuple(v / m_fact for v in numerators),
        a=tuple(a),
        leading_exact=leading,
        tail_sum_exact=tail,
    )


def _outage_tail(x, shape: int, m: int, prefactor: float, scale: float = 1.0, law=lambda f: f):
    """min(1, prefactor * y^m * integral_y^inf law(F(w)) w^{-(m+1)} dw) at
    y = x / scale, F the Gamma(shape, 1) CDF, for one threshold ``x`` or a
    1-D array of them: a float for a scalar, else an array.

    A threshold where F(y) is 1.0 in double precision reads 1.0, since
    law(1) = 1 makes the integral exactly y^-m / m; one where
    prefactor * y^m underflows to 0.0 reads 0.0, since law(F) <= 2 F and
    F(w) <= w^shape / shape! with shape > m bound the integral by 2 + 1/m.
    The other tails run through one :func:`adaptive_quadrature` call.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
    for v in xs:
        if not 0 < v < math.inf:
            raise ValueError(f"threshold must be finite and positive, got {v}")
    ys = [v / scale for v in xs]
    saturated = (_gamma_cdf_int(shape, ys) == 1.0).tolist()
    out = [1.0 if full else 0.0 for full in saturated]
    heads = [0.0 if full else prefactor * y ** m for y, full in zip(ys, saturated)]
    rows = [i for i, head in enumerate(heads) if head != 0.0]
    if rows:
        tails = adaptive_quadrature(lambda w: law(_gamma_cdf_int(shape, w)) * w ** (-(m + 1)),
                                    np.array([ys[i] for i in rows])).tolist()
        for i, tail in zip(rows, tails):
            out[i] = min(1.0, heads[i] * tail)
    return out[0] if np.ndim(x) == 0 else np.array(out)


def pr_outage_quadrature(x, n_t: int, n_r: int, restricted: bool = False):
    """Outage probability of the bounding variable z * sin^2(theta_0) at
    threshold ``x``, a float, or at each threshold of a 1-D array ``x``,
    an array, by adaptive quadrature.

    ``z`` is Gamma((n_t - 1) n_r, 1) distributed and theta_0 is the
    largest of the n_t - 1 reference angles.  With ``restricted`` the
    angles are conditioned into (0, psi0), which rescales the threshold
    but leaves the small-x exponent unchanged.

    The integral over the angle variable is transformed to
    m * x^m * integral_x^inf F_z(w) w^{-(m+1)} dw, which keeps full
    relative precision down to thresholds where m * x^m underflows; there
    the probability reads 0.0.  The tail integral is
    :func:`adaptive_quadrature`; one that misses its tolerance raises
    :class:`QuadratureError`.  Once F_z is 1.0 in double precision at the
    lower limit, the probability is 1.0.
    """
    spec = AnalyticSpec(n_t, n_r, 2)
    m = spec.m
    if not restricted:
        return _outage_tail(x, (n_t - 1) * n_r, m, m)
    a0 = math.sin(spec.psi0) ** 2
    norm_c = theta_cdf(spec.psi0, n_r)  # closed form of the angle-pdf integral over (0, psi0)
    return _outage_tail(x, (n_t - 1) * n_r, m, m * a0 ** m / norm_c ** (n_t - 1), scale=a0)


def random_pair_outage(x, n_r: int):
    """Exact outage probability P(s <= x) of random selection at L = 2,
    a float for one threshold ``x`` or an array for a 1-D array of them.

    The uniform pair's two columns are iid CN(0, I_{n_r}) for any n_t, so
    its scalar, the smaller of its two heights, is min(a, b) u: a and b
    are the squared column norms, iid Gamma(n_r, 1), and u = sin^2 of
    their angle is Beta(n_r - 1, 1), independent of them.  Then
    P(s <= x) = integral_0^1 (n_r - 1) u^(n_r - 2) [1 - (1 - F(x/u))^2] du
    with F the Gamma(n_r, 1) CDF.  As in :func:`pr_outage_quadrature`,
    the substitution w = x/u turns it into
    m x^m integral_x^inf F(w) (2 - F(w)) w^{-(m+1)} dw with m = n_r - 1,
    the small-x exponent, which keeps full relative precision at depth.
    """
    m = _angle_order(n_r)
    return _outage_tail(x, n_r, m, m, law=lambda f: f * (2.0 - f))


def quadrature_slope(xs, n_t: int, n_r: int, restricted: bool = False) -> tuple[list[float], float]:
    """:func:`pr_outage_quadrature` at the thresholds ``xs``, in one call,
    and the unweighted least-squares slope of log P against log x.

    Fewer than 2 thresholds raise ``ValueError`` before any quadrature.
    A probability below the smallest normal float has no accurate
    logarithm to fit: the first such point raises ``ValueError`` naming
    its threshold.
    """
    xs = [float(x) for x in xs]
    if len(xs) < 2:  # one point has no slope
        raise ValueError(f"a slope needs at least 2 thresholds, got {len(xs)}")
    probabilities = pr_outage_quadrature(np.array(xs), n_t, n_r, restricted=restricted).tolist()
    for x, p in zip(xs, probabilities):
        if not p >= sys.float_info.min:
            raise ValueError(f"quadrature probability at x = {x!r} is {p!r}, below the smallest normal float; "
                             "raise the grid")
    return probabilities, float(np.polyfit(np.log(xs), np.log(probabilities), 1)[0])


def exp_integral(k: int, x: float) -> float:
    """Generalized exponential integral E_k(x) = int_1^inf e^{-x m} / m^k dm.

    Non-positive orders are the moment integrals int_1^inf m^{|k|} e^{-x m} dm,
    evaluated by their finite closed form; orders above one come from
    upward recursion k E_{k+1} = e^{-x} - x E_k starting at :func:`_exp1`.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"argument must be finite and positive, got {x}")
    k = int(k)
    if k <= 0:
        j = -k
        s = sum(x ** i / math.factorial(i) for i in range(j + 1))
        return math.factorial(j) * math.exp(-x) * s / x ** (j + 1)
    value = _exp1(x)
    for i in range(1, k):
        value = (math.exp(-x) - x * value) / i
    return value


def series_partial(m: int, k_max: int) -> float:
    """Partial sum sum_{k=1}^{k_max} k! / (m+k+1)! via ratio recurrences.

    Non-decreasing in ``k_max`` and bounded by 1 / (m (m+1)!), its limit.
    """
    if m < 1 or k_max < 1:
        raise ValueError(f"need m >= 1 and k_max >= 1, got m={m}, k_max={k_max}")
    total = 0.0
    term = math.exp(math.lgamma(2.0) - math.lgamma(m + 3.0))  # 1!/(m+2)!
    for k in range(1, k_max + 1):
        total += term
        term *= (k + 1) / (m + k + 2)
    return total


def binomial_identity_check(m: int, k: int) -> bool:
    """Exact check of sum_{i<=k} (-1)^i C(m, i) == (-1)^k C(m-1, k)."""
    if k < 0 or k > m - 1:
        raise ValueError(f"need 0 <= k <= m-1, got m={m}, k={k}")
    lhs = sum((-1) ** i * math.comb(m, i) for i in range(k + 1))
    rhs = (-1) ** k * math.comb(m - 1, k)
    return lhs == rhs


def dmt_curve(n_t: int, n_r: int, L: int, r: float, bound: str = "exact-l2") -> float:
    """Diversity-multiplexing curve d(r) = m* (1 - r/L)^+.

    ``bound`` selects m*: "lower" and "upper" use the general-L bounds;
    "exact-l2" uses (n_t-1)(n_r-1) and requires L = 2.
    """
    if not 0 <= r < math.inf:
        raise ValueError(f"multiplexing gain must be finite and non-negative, got {r}")
    spec = AnalyticSpec(n_t, n_r, L)
    kind = bound.lower()
    if kind == "exact-l2":
        if L != 2:
            raise ValueError("bound 'exact-l2' is defined for L = 2 only")
        m_star = spec.m
    elif kind == "lower":
        m_star = spec.m_lower
    elif kind == "upper":
        m_star = spec.m_upper
    else:
        raise ValueError(f"unknown bound {bound!r}; expected lower, upper or exact-l2")
    return m_star * max(0.0, 1.0 - r / L)
