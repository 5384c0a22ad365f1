"""The special functions of the package, in numpy.

``Q(a, x) = Gamma(a, x) / Gamma(a)`` decreases from 1 to 0 in ``x``, and
``P = 1 - Q``.  :func:`q` and :func:`q_inv` are the package's one route
to ``Q`` and ``Q^{-1}``; both take a scalar or an array in their second
argument.  :func:`log_q_int` is ``log Q(k, x)`` for an integer ``k``,
:func:`sine_integral` is ``Si`` and :func:`binom_cdf` is a binomial CDF
table.  The methods:

- ``a = 1``: ``Q = exp(-x)``, ``Q^{-1}(y) = -log y``.
- ``a = 1/2``: ``Q(1/2, z) = erfc(sqrt z)`` by the rational Chebyshev
  approximations of Cody (Math. Comp. 23, 1969) with the coefficients of
  Cephes' ``ndtr.c``, ``exp(-z)`` taken from ``z`` itself.
- other ``a``: the power series of ``P`` below ``x = a`` (below ``a +
  1`` for ``a >= 1/2``, where ``Q`` stays above 1/12), the continued
  fraction of ``Q`` above, and for ``x <= 1.1`` and small ``a`` the
  series of
  ``Q`` around ``Gamma(a) - x**a / a`` (the choice of Cephes' ``igam.c``,
  after DiDonato and Morris, ACM TOMS 12, 1986).
- ``Q^{-1}``, ``a != 1``: from the starts of DiDonato and Morris, Halley
  steps on ``log Q = log y`` (``log P = log(1 - y)`` where ``y > 1/2``)
  kept inside a bracket; for ``a = 1/2`` two Halley steps on ``erfc``
  from Giles' erfinv.
- ``Si``: its Taylor series up to ``|x| = 4``, the continued fraction of
  ``E1(ix)`` up to 40, the asymptotic series of its auxiliary functions
  beyond.
- binomial probabilities: Loader's saddle-point form (``stirlerr`` and
  ``bd0``), summed from each end of the table.

Every kernel is elementwise: a value goes through the same sequence of
ufunc operations whatever array it sits in, so results do not depend on
chunking or on the number of threads.  Polynomials are in-place ufunc
Horner loops (a matrix product would round a one-element call
differently), and an iteration keeps each element's value at its own
convergence.  Arrays are worked in blocks, so the scratch stays small.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = ["q", "q_inv", "log_q_int", "sine_integral", "binom_cdf"]

_EPS = float(np.finfo(float).eps)
# Values per block: the a = 1/2 kernel of q, every other kernel of q and
# the other functions, and q_inv (whose scratch must stay within a tenth
# of its result on the Levy profile grid).
_FAST_BLOCK = 1 << 16
_BLOCK = 1 << 15
_INV_BLOCK = 512
# Most steps of an iteration before it gives up on convergence, and the
# steps between two tests of it in the series and fractions (a test costs
# as many ufunc calls as a step, and a step past convergence moves a value
# by an ulp at most).
_MAX_STEPS = 10_000
_CHECK = 4

# erfc(x) = exp(-x*x) * P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) beyond,
# and erf(x) = x * T(x*x) / U(x*x) below 1 (Cephes ndtr.c): highest power
# first, each denominator monic with its leading 1 left out.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)

# Si(x) = x * sum_n (-1)**n x**(2n) / ((2n+1) (2n+1)!) for |x| <= 4,
# highest power first: the 17th term is below 1e-20 there.
_SI_TAYLOR = [
    (-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(16, -1, -1)
]
_SI_SERIES_MAX = 4.0
# From t = 40 on Si takes the asymptotic series of its auxiliary functions
# f and g, highest power of 1/t**2 first.
_SI_FAR = 40.0
_SI_F = [(-1) ** k * float(math.factorial(2 * k)) for k in range(11, -1, -1)]
_SI_G = [(-1) ** k * float(math.factorial(2 * k + 1)) for k in range(11, -1, -1)]

# stirlerr(n) = log(n!) - (n + 1/2) log n + n - log sqrt(2 pi) for
# n = 0 .. 15 (0 at n = 0 by convention), from a 30-digit evaluation.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _horner(coef, x: np.ndarray, out: np.ndarray, monic: bool = False) -> np.ndarray:
    """The polynomial ``coef`` (highest power first, after a leading 1 if
    ``monic``) at ``x``, into ``out`` (not ``x``) by Horner's rule in
    place."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[1 if monic else 2 :]:
        out *= x
        out += c
    return out


def _rational(num, den, x: np.ndarray) -> np.ndarray:
    """``num(x) / den(x)``, with ``den`` monic (see :func:`_horner`)."""
    top = _horner(num, x, np.empty(x.size))
    return np.divide(top, _horner(den, x, np.empty(x.size), monic=True), out=top)


# ---------------------------------------------------------------------------
# The incomplete gamma ratios.
# ---------------------------------------------------------------------------


def _erfc_sqrt(z: np.ndarray, q_out: np.ndarray, p_out=None) -> None:
    """``Q(1/2, z) = erfc(sqrt z)`` into ``q_out`` (which may be ``z``)
    and, if given, ``P(1/2, z) = erf(sqrt z)`` into ``p_out``, for a 1-D
    ``z >= 0``.  Every value first takes the branch of ``1 <= sqrt z <
    8``; those below and above are then redone on their own."""
    small = np.flatnonzero(z < 1.0)
    z_small = z[small]
    x = np.sqrt(z)
    x_small = x[small]
    big = None
    if z.max(initial=0.0) >= 64.0:
        big = np.flatnonzero(z >= 64.0)
        # Beyond 1e10 the value is 0 in any case, and the rationals stay
        # finite.
        z_big, x_big = z[big], np.minimum(x[big], 1e10)
        x[big] = 8.0
    den = _horner(_ERFC_Q, x, np.empty(x.size), monic=True)
    num = _horner(_ERFC_P, x, np.empty(x.size))
    np.negative(z, out=q_out)
    np.exp(q_out, out=q_out)
    q_out *= num
    q_out /= den
    if big is not None:
        q_out[big] = np.exp(-z_big) * _rational(_ERFC_R, _ERFC_S, x_big)
    if p_out is not None:
        np.subtract(1.0, q_out, out=p_out)
    if small.size:
        erf = x_small * _rational(_ERF_T, _ERF_U, z_small)
        q_out[small] = 1.0 - erf
        if p_out is not None:
            p_out[small] = erf


@lru_cache(maxsize=64)
def _zeta(s: int) -> float:
    """Riemann zeta at an integer ``s >= 2``, by Euler--Maclaurin from
    the 20th term on."""
    n = 20
    head = math.fsum(i ** -s for i in range(1, n))
    tail = n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    # B_2j / (2j)! for j = 1 .. 7.
    bern = [1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000, 1 / 74724249600]
    rising = s
    for j, b in enumerate(bern, start=1):
        tail += b * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


@lru_cache(maxsize=64)
def _lgam1p(a: float) -> float:
    """``log Gamma(1 + a)``, to a few ulps of its own size near ``a =
    0``, where ``math.lgamma(1 + a)`` loses relative accuracy."""
    if abs(a) > 0.5:
        return math.lgamma(1.0 + a)
    # -euler a + sum_{n >= 2} zeta(n) (-a)**n / n
    terms = [-0.57721566490153286061 * a]
    for n in range(2, 80):
        term = _zeta(n) * (-a) ** n / n
        terms.append(term)
        if abs(term) < 1e-18 * abs(terms[0]):
            break
    return math.fsum(terms)


def _iterate(x: np.ndarray, step, state: tuple) -> np.ndarray:
    """Run ``step(n, x, *state) -> (state, done)`` for ``n = 1, 2, ...``
    and keep the first entry of each element's state at the first step
    that marks it ``done`` (or its last, after ``_MAX_STEPS``); a step
    may return ``done = None`` to skip the test.  A kept value depends
    only on its own element.

    Once at most half the elements are still running, the arrays shrink
    to a power of two that holds them, padded with elements already
    done (which step on unseen).  So every array has the size of ``x``
    or a power of two: numpy keeps freed buffers under 1 kB for reuse,
    and arrays of arbitrary small sizes would each keep their own.
    """
    result = np.empty(x.size, state[0].dtype)
    kept = np.empty(x.size, state[0].dtype)
    live = np.arange(x.size)
    pending = np.ones(x.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n in range(1, _MAX_STEPS + 1):
            state, done = step(n, x, *state)
            if n == _MAX_STEPS:
                done = pending
            elif done is None:
                continue
            new = np.logical_and(done, pending, out=done)
            np.copyto(kept, state[0], where=new)
            pending ^= new
            running = int(np.count_nonzero(pending))
            if not running:
                break
            size = 1 << (running - 1).bit_length()
            if size <= live.size // 2:
                result[live] = kept
                pick = np.argsort(~pending, kind="stable")[:size]
                live, x, kept, pending = live[pick], x[pick], kept[pick], pending[pick]
                state = tuple(part[pick] for part in state)
    result[live] = kept
    return result


def _lead(a: float, x: np.ndarray) -> np.ndarray:
    """``x**a exp(-x) / Gamma(a + 1)`` for ``x >= 0``, as the product of
    ``x**a / Gamma(a + 1)`` and ``exp(-x)``, each to an ulp or two: one
    exponent ``a log x - x`` would carry a rounding error of its own
    size.  Where a factor could leave the range of a double, and for ``a
    > 100``, that one exponent.  0 at ``x = 0``."""
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    if a > 100.0:
        return np.exp(a * log_x - x - math.lgamma(a + 1.0))
    out = np.power(x, a)
    out *= np.exp(-x)
    out /= math.gamma(a + 1.0)
    wide = np.flatnonzero((x > 600.0) | (np.abs(log_x) * a > 600.0))
    if wide.size:
        out[wide] = np.exp(a * log_x[wide] - x[wide] - math.lgamma(a + 1.0))
    return out


def _series_p(a: float, x: np.ndarray) -> np.ndarray:
    """``P(a, x)`` by ``x**a exp(-x) / Gamma(a + 1) * sum_n x**n / ((a +
    1) ... (a + n))``."""
    def step(n, x, total, term):
        term *= x
        term /= a + n
        total += term
        return (total, term), term <= _EPS * total if n % _CHECK == 0 else None

    return _lead(a, x) * _iterate(x, step, (np.ones(x.size), np.ones(x.size)))


def _fraction_q(a: float, x: np.ndarray) -> np.ndarray:
    """``Q(a, x)`` by its continued fraction (modified Lentz), for ``x >
    1.1`` beyond the series."""
    def step(n, x, h, b, c, d):
        an = -n * (n - a)
        b += 2.0
        d *= an
        d += b
        np.divide(an, c, out=c)
        c += b
        np.divide(1.0, d, out=d)
        delta = c * d
        h *= delta
        if n % _CHECK:
            return (h, b, c, d), None
        delta -= 1.0
        return (h, b, c, d), np.abs(delta, out=delta) <= _EPS

    b = x + (1.0 - a)
    d = 1.0 / b
    h = _iterate(x, step, (d.copy(), b, np.full(x.size, 1e300), d))
    return a * _lead(a, x) * h


def _small_q(a: float, x: np.ndarray) -> np.ndarray:
    """``Q(a, x)`` as ``-expm1(a log x - log Gamma(1 + a)) - x**a /
    Gamma(a) * sum_{n >= 1} (-x)**n / (n! (a + n))``, for ``x <= 1.1``."""
    def step(n, x, total, fac):
        fac *= -x
        fac /= n
        term = fac / (a + n)
        total += term
        if n % _CHECK:
            return (total, fac), None
        return (total, fac), np.abs(term, out=term) <= _EPS * np.abs(total)

    total = _iterate(x, step, (np.zeros(x.size), np.ones(x.size)))
    log_x = np.log(x)
    head = -np.expm1(a * log_x - _lgam1p(a))
    return head - np.exp(a * log_x - math.lgamma(a)) * total


def _gamma_ratios(a: float, x: np.ndarray, q_out: np.ndarray, p_out=None) -> None:
    """``Q(a, x)`` into ``q_out`` (which may be ``x``) and, if given,
    ``P(a, x)`` into ``p_out``, for a 1-D ``x >= 0`` and ``a != 1``; ``a =
    1/2`` goes to :func:`_erfc_sqrt`.  Each value comes from a method
    that keeps its relative accuracy for the smaller of the two."""
    if a == 0.5:
        _erfc_sqrt(x, q_out, p_out)
        return
    # Above x = 1.1 the series of P below x = a, and for a >= 1/2 below
    # a + 1, where Q is still above 1/12 and the series as accurate as the
    # fraction and faster; at and below 1.1 Cephes' choice: the series
    # where a exceeds -0.4 / log x (x <= 0.5) or 1.1 x (above).
    high = x > 1.1
    with np.errstate(divide="ignore"):
        series = np.where(x <= 0.5, a * np.log(x) < -0.4, a > 1.1 * x)
    series = np.where(high, x < a + (a >= 0.5), series) & (x > 0.0)
    fraction = high & ~series & np.isfinite(x)
    small = ~high & ~series & (x > 0.0)
    # native is P where the series ran, else Q: 1 at x = 0, 0 at inf.
    native = np.where(x == 0.0, 1.0, np.where(x == np.inf, 0.0, np.nan))
    # Each method runs on the whole block, the others' values replaced by
    # a spare input on which it converges at once.
    for mask, method, spare in ((series, _series_p, 1e-3 * a),
                                (fraction, _fraction_q, a + 1e3),
                                (small, _small_q, 1e-3)):
        if mask.any():
            np.copyto(native, method(a, np.where(mask, x, spare)), where=mask)
    np.subtract(1.0, native, out=q_out, where=series)
    np.copyto(q_out, native, where=~series)
    if p_out is not None:
        np.subtract(1.0, native, out=p_out, where=~series)
        np.copyto(p_out, native, where=series)


def _blocks(x: np.ndarray, out: np.ndarray, size: int, kernel) -> None:
    """``kernel(x_block, out_block)`` over 1-D blocks of ``size``; ``out``
    is C-contiguous and ``x`` either is ``out`` or has its shape."""
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat_out.size, size):
        kernel(flat_x[i : i + size], flat_out[i : i + size])


def q(
    a: float, x: float | np.ndarray, out: np.ndarray | None = None
) -> float | np.ndarray:
    """``Q(a, x)`` for ``a > 0`` and ``x >= 0``.  The shapes ``a = 1`` and
    ``a = 1/2`` reduce to ``exp(-x)`` and ``erfc(sqrt(x))``.  ``out``
    (which may be ``x`` itself) receives the result; scratch is taken
    block by block.
    """
    if a <= 0.0:
        raise ValueError(f"q requires a > 0, got {a!r}")
    if np.asarray(x).min(initial=0.0) < 0.0:
        raise ValueError("q requires x >= 0")
    if a == 1.0:
        return np.exp(np.negative(x, out=out), out=out)
    x = np.asarray(x, dtype=float)
    target = np.empty(x.shape) if out is None else out
    work = target if target.flags.c_contiguous else np.empty(x.shape)
    size = _FAST_BLOCK if a == 0.5 else _BLOCK
    _blocks(x, work, size, lambda xb, ob: _gamma_ratios(a, xb, ob))
    if work is not target:
        target[...] = work
    if out is not None:
        return out
    return target[()] if target.ndim == 0 else target


# ---------------------------------------------------------------------------
# The inverse of Q.
# ---------------------------------------------------------------------------

# Halley steps stop once a step moves x by at most this share of it: the
# error left after such a step is of the order of its cube.
_INV_TOL = 1e-6
_INV_STEPS = 100


def _normal_upper(p: np.ndarray) -> np.ndarray:
    """A rough upper-tail normal quantile at ``p <= 1/2`` (Abramowitz
    and Stegun 26.2.22, within 3e-3)."""
    t = np.sqrt(-2.0 * np.log(p))
    return t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + t * 0.04481))


# erfinv(s) = s * G(w - 5/2) with w = -log(1 - s**2) below w = 5, within
# 1.3e-7 (Giles, "Approximating the erfinv function", GPU Computing Gems,
# 2011, single precision), highest power first.
_ERFINV_G = (
    2.81022636e-08, 3.43273939e-07, -3.5233877e-06, -4.39150654e-06,
    0.00021858087, -0.00125372503, -0.00417768164, 0.246640727, 1.50140941,
)


def _start_tail(a: float, y: np.ndarray) -> np.ndarray:
    """The asymptotic inverse of ``Q(a, x) = y`` for ``b = y Gamma(a) <
    0.1`` (DiDonato and Morris, eq. 25): ``x = L + c1 + c2/L + ... +
    c5/L**4`` with ``L = -log b``, within 1e-5 for ``y < 1e-6`` and ``a
    <= 3``.  ``b`` is held below 0.1 so that every value is finite."""
    big_l = -np.log(np.minimum(y * math.gamma(a), 0.1))
    c1 = (a - 1.0) * np.log(big_l)
    # c2 .. c5 are polynomials in c1, highest power first.
    c2 = _horner(((a - 1.0), (a - 1.0)), c1, np.empty(y.size))
    c3 = _horner((-0.5 * (a - 1.0), (a - 1.0) * (a - 2.0),
                  (a - 1.0) * (3.0 * a - 5.0) / 2.0), c1, np.empty(y.size))
    c4 = _horner(((a - 1.0) / 3.0, -(a - 1.0) * (3.0 * a - 5.0) / 2.0,
                  (a - 1.0) * (a * a - 6.0 * a + 7.0),
                  (a - 1.0) * (11.0 * a * a - 46.0 * a + 47.0) / 6.0), c1, np.empty(y.size))
    c5 = _horner((-(a - 1.0) / 4.0, (a - 1.0) * (11.0 * a - 17.0) / 6.0,
                  (a - 1.0) * (-3.0 * a * a + 13.0 * a - 13.0),
                  (a - 1.0) * (2.0 * a**3 - 25.0 * a * a + 72.0 * a - 61.0) / 2.0,
                  (a - 1.0) * (25.0 * a**3 - 195.0 * a * a + 477.0 * a - 379.0) / 12.0),
                 c1, np.empty(y.size))
    return big_l + c1 + (c2 + (c3 + (c4 + c5 / big_l) / big_l) / big_l) / big_l


def _start(a: float, y: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A start for ``Q^{-1}(a, y)``, ``0 < y < 1``, where ``upper``, ``y
    <= 1/2``, else ``p = 1 - y < 1/2``.  For ``a = 1/2``, Giles' erfinv
    (within 3e-7) where ``w = -log(y (2 - y)) < 5``; in the upper tail
    (``y Gamma(a) < 0.1``, ``a <= 3``) :func:`_start_tail`; for ``a <
    1`` elsewhere eqs. 21 to 24 of DiDonato and Morris by ``y Gamma(a)``,
    on the lower side eq. 21; for ``a > 1`` Wilson--Hilferty, on the lower
    side at least eq. 21.  Good to a few per cent or better."""
    p = 1.0 - y
    tail = upper & (y * math.gamma(a) < 0.1) if a <= 3.0 else np.zeros(y.size, bool)
    if a == 0.5:
        w = -np.log(y * (2.0 - y))
        body = _horner(_ERFINV_G, np.minimum(w, 5.0) - 2.5, np.empty(y.size))
        body *= p
        body *= body
        tail = w >= 5.0
        return np.where(tail, _start_tail(a, y), body)
    # Lower side: u = (p Gamma(a + 1))**(1/a), x = u / (1 - u/(a + 1))
    # (DiDonato and Morris, eq. 21).
    u = np.exp((np.log(p) + math.lgamma(a + 1.0)) / a)
    low = u / np.maximum(1.0 - u / (a + 1.0), 0.5)
    if a < 1.0:
        # The middle of the upper side, by b = y Gamma(a): eqs. 21 to 24.
        b = y * math.gamma(a)
        big_l = -np.log(np.clip(b, 1e-300, 0.99))
        v = big_l - (1.0 - a) * np.log(big_l)
        t = np.exp(-0.5772156649015329 - np.minimum(b, 1.0))
        body = np.select(
            [(b > 0.6) | ((b >= 0.45) & (a >= 0.3)), (a < 0.3) & (b >= 0.35),
             (b > 0.15) | (a >= 0.3)],
            [low, t * np.exp(t * np.exp(t)),
             big_l - (1.0 - a) * np.log(v) - np.log1p((1.0 - a) / (1.0 + v))],
            big_l - (1.0 - a) * np.log(v) - np.log(
                (v * v + 2.0 * (3.0 - a) * v + (2.0 - a) * (3.0 - a))
                / (v * v + (5.0 - a) * v + 2.0)
            ),
        )
    else:
        z = _normal_upper(np.where(upper, y, p))
        body = a * (1.0 - 1.0 / (9.0 * a) + np.where(upper, z, -z) / (3.0 * math.sqrt(a))) ** 3
        low = np.maximum(body, low)
    body = np.maximum(np.where(upper, body, low), 1e-300)
    return np.where(tail, _start_tail(a, y), body)


def _erfcinv_squared(y: np.ndarray, upper: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``Q^{-1}(1/2, y) = erfcinv(y)**2`` for ``0 < y < 1`` from a start
    within 5e-4 (:func:`_start`): two Halley steps on ``erfc(x) = y`` in
    ``x = sqrt(z)``, with ``f = erfc(x) - y`` as ``Q - y`` where ``y <=
    1/2`` and as ``(1 - y) - P`` above, ``f'/f'' = -1/(2x)``.  From 5e-4
    the first step leaves about 1e-10 and the second an ulp; every value
    takes both, so none depends on another."""
    x = np.sqrt(start)
    q_x, p_x = np.empty(y.size), np.empty(y.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            z = x * x
            _erfc_sqrt(z, q_x, p_x)
            f = np.where(upper, q_x - y, (1.0 - y) - p_x)
            f /= np.exp(-z) * (-2.0 / math.sqrt(math.pi))
            new = x - f / (1.0 + x * f)
            x = np.where(np.isfinite(new), new, x)
    return x * x


def _inverse(a: float, y: np.ndarray, out: np.ndarray) -> None:
    """``Q^{-1}(a, y)`` into ``out`` (which may be ``y``) for a 1-D ``y``
    in [0, 1] and ``a != 1``: 0 at ``y = 1``, inf at ``y = 0``.

    Solves ``G(x) = log R(x) - log t = 0`` with ``R = Q`` and ``t = y``
    where ``y <= 1/2``, else ``R = P`` and ``t = 1 - y``, by Halley steps
    with ``G'/G = -+rho/R`` and ``rho = x**(a-1) exp(-x) / Gamma(a)``.  A
    step that leaves the bracket of the values seen, or is not finite,
    is replaced by its midpoint (a doubling while the bracket is open).
    """
    inner = np.flatnonzero((y > 0.0) & (y < 1.0))
    yi = y[inner]
    none = y <= 0.0
    out[y >= 1.0] = 0.0
    out[none] = np.inf
    if not inner.size:
        return
    upper = yi <= 0.5
    x = _start(a, yi, upper)
    if a == 0.5:
        out[inner] = _erfcinv_squared(yi, upper, x)
        return
    log_t = np.where(upper, np.log(yi), np.log1p(-yi))
    sign = np.where(upper, -1.0, 1.0)
    lg_a = math.lgamma(a)

    def step(n, _, x, lo, hi, log_t, sign):
        q_x = np.empty(x.size)
        p_x = np.empty(x.size)
        _gamma_ratios(a, x, q_x, p_x)
        log_r = np.log(np.where(sign < 0.0, q_x, p_x))
        g = log_r - log_t
        below = (g * sign) < 0.0  # x lies below the root
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        log_x = np.log(x)
        w = np.exp((a - 1.0) * log_x - x - lg_a - log_r)
        newton = g / (sign * w)
        curve = (a - 1.0) / x - 1.0 - sign * w
        new = x - newton / (1.0 - 0.5 * np.minimum(1.0, newton * curve))
        done = (np.abs(new - x) <= _INV_TOL * x) | (n >= _INV_STEPS)
        bad = ~(done | ((new > lo) & (new < hi)))
        new = np.where(bad, np.where(np.isinf(hi), 2.0 * x, 0.5 * (lo + hi)), new)
        # A start of 0 is a root below the least double.
        new[x == 0.0] = 0.0
        done |= x == 0.0
        return (new, lo, hi, log_t, sign), done

    zeros, infs = np.zeros(x.size), np.full(x.size, np.inf)
    out[inner] = _iterate(x, step, (x, zeros, infs, log_t, sign))


def q_inv(a: float, y: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`q` in its second argument, extended by
    ``q_inv(a, y) = 0`` for ``y >= 1`` and ``inf`` for ``y <= 0``.  The
    shape ``a = 1`` inverts its closed form, ``-log(y)``; every other
    shape takes Halley steps on :func:`q`.  The result is built in one
    array the size of ``y``, with scratch only block by block.
    """
    if a <= 0.0:
        raise ValueError(f"q_inv requires a > 0, got {a!r}")
    y = np.asarray(y)
    y = np.clip(y, 0.0, 1.0, out=np.empty(y.shape, np.result_type(y, 0.0)))
    if a == 1.0:
        # 0.0 - log(1) is +0.0, where -log(1) would be -0.0.
        with np.errstate(divide="ignore"):
            np.log(y, out=y)
        np.subtract(0.0, y, out=y)
    else:
        size = _INV_BLOCK * 2 if a == 0.5 else _INV_BLOCK
        _blocks(y, y, size, lambda yb, ob: _inverse(a, yb, ob))
    return y if y.ndim else y[()]


# ---------------------------------------------------------------------------
# Integer shapes, the sine integral and binomial tables.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _p_series_int(k: int) -> tuple:
    """``k! / (k + j)!`` for ``j = N .. 0``, highest power first: the
    series ``P(k, x) = x**k exp(-x) / k! * sum_j x**j k! / (k + j)!`` to
    ``N = 12 + sqrt(74 k)`` terms, which holds it to 1e-16 for ``x <=
    k``."""
    terms = 12 + math.isqrt(74 * k)
    coef, c = [1.0], Fraction(1)
    for j in range(1, terms + 1):
        c /= k + j
        coef.append(float(c))
    return tuple(coef[::-1])


def log_q_int(k: int, x) -> np.ndarray:
    """``log Q(k, x)`` for an integer ``k >= 1`` and finite ``x >= 0``
    (vectorized).  Below ``x = k``, where ``Q`` is near 1, it is
    ``log1p(-P(k, x))`` with ``P`` from its power series, a polynomial of
    fixed degree; from ``x = k`` on, ``log(sum_{i<k} x**i / i!) - x``, a
    sum of positive terms; for ``k = 1`` exactly ``-x``."""
    x = np.asarray(x, dtype=float)
    if k == 1:
        return -x
    out = np.empty(x.shape)

    def kernel(xb: np.ndarray, ob: np.ndarray) -> None:
        total, term = np.ones(xb.size), np.ones(xb.size)
        for i in range(1, k):
            term *= xb / i
            total += term
        with np.errstate(divide="ignore"):
            np.subtract(np.log(total), xb, out=ob)
        low = np.flatnonzero(xb < k)
        x_low = xb[low]
        p = _horner(_p_series_int(k), x_low, np.empty(low.size))
        p *= _lead(float(k), x_low)
        # 0.0 - p keeps log Q(k, 0) at +0.0.
        ob[low] = np.log1p(np.subtract(0.0, p, out=p))

    _blocks(x, out, _BLOCK, kernel)
    return out


def sine_integral(x) -> np.ndarray:
    """``Si(x) = integral_0^x sin(t)/t dt`` at every finite ``x``
    (vectorized), odd in ``x``.  With ``t = |x|``: the Taylor series up
    to ``t = 4``; beyond, ``pi/2 - f(t) cos t - g(t) sin t`` with the
    auxiliary functions ``f`` and ``g`` from the continued fraction of
    ``E1(it)`` (Numerical Recipes' ``cisi``, modified Lentz) below ``t =
    40`` and from their asymptotic series, 12 terms each, above."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)

    def kernel(xb: np.ndarray, ob: np.ndarray) -> None:
        t = np.abs(xb)
        for part, method in ((t <= _SI_SERIES_MAX, _si_taylor),
                             ((t > _SI_SERIES_MAX) & (t < _SI_FAR), _si_fraction),
                             (t >= _SI_FAR, _si_asymptotic)):
            idx = np.flatnonzero(part)
            if idx.size:
                ob[idx] = method(t[idx])
        np.copysign(ob, xb, out=ob)

    _blocks(x, out, _BLOCK, kernel)
    return out


def _si_taylor(t: np.ndarray) -> np.ndarray:
    """``Si(t)`` for ``t <= 4`` by its Taylor series."""
    return t * _horner(_SI_TAYLOR, t * t, np.empty(t.size))


def _si_asymptotic(t: np.ndarray) -> np.ndarray:
    """``Si(t)`` for ``t >= 40`` from ``t f(t) ~ sum_k (-1)**k (2k)! /
    t**(2k)`` and ``t**2 g(t) ~ sum_k (-1)**k (2k+1)! / t**(2k)``; the
    first term left out is below 1e-15 of each."""
    u = 1.0 / (t * t)
    f = _horner(_SI_F, u, np.empty(t.size))
    f /= t
    g = _horner(_SI_G, u, np.empty(t.size))
    g *= u
    f *= np.cos(t)
    g *= np.sin(t)
    f += g
    return np.subtract(0.5 * math.pi, f, out=f)


def _si_fraction(t: np.ndarray) -> np.ndarray:
    """``Si(t)`` for ``4 < t < 40`` by the continued fraction of
    ``E1(it)``, in complex arithmetic."""
    def step(n, t, h, b, c, d):
        an = -float(n * n)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = an / c + b
        delta = c * d
        h = h * delta
        if n % _CHECK:
            return (h, b, c, d), None
        delta -= 1.0
        return (h, b, c, d), np.abs(delta.real) + np.abs(delta.imag) <= _EPS

    b = 1.0 + 1j * t
    d = 1.0 / b
    h = _iterate(t, step, (d, b, np.full(t.size, 1e30 + 0j), d))
    return 0.5 * math.pi + np.cos(t) * h.imag - np.sin(t) * h.real


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """``log(n!) - (n + 1/2) log n + n - log sqrt(2 pi)`` at integers
    ``n >= 1``: the table to 15, the Stirling series beyond."""
    out = np.empty(n.shape)
    low = n <= 15
    out[low] = _STIRLERR[n[low].astype(np.int64)]
    m = n[~low]
    mm = m * m
    out[~low] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x log(x/m) + m - x`` for ``x, m > 0``, by the series in ``v =
    (x - m)/(x + m)`` where ``|x - m| < (x + m)/10`` (Loader, 2000)."""
    out = x * np.log(x / m) + m - x
    close = np.flatnonzero(np.abs(x - m) < 0.1 * (x + m))
    if close.size:
        xc, mc = x[close], m[close]
        v = (xc - mc) / (xc + mc)

        def step(n, v, total, ej):
            ej = ej * (v * v)
            new = total + ej / (2 * n + 1)
            return (new, ej), new == total

        out[close] = _iterate(v, step, ((xc - mc) * v, 2.0 * xc * v))
    return out


def binom_cdf(count: int, p: float, q: float) -> np.ndarray:
    """``P(X <= j)`` for ``j = 0 .. count`` and ``X ~ Binomial(count,
    p)``, with ``q = 1 - p`` passed in at full accuracy.  Each
    probability is Loader's saddle-point form; the table sums them from
    the left up to the mode and is ``1 -`` the sum from the right above
    it, so its top reaches exactly 1."""
    if count == 0 or p <= 0.0:
        return np.ones(count + 1)
    if q <= 0.0:
        out = np.zeros(count + 1)
        out[-1] = 1.0
        return out
    j = np.arange(1.0, count)
    rest = count - j
    log_pmf = (
        _stirlerr(np.array([float(count)]))[0] - _stirlerr(j) - _stirlerr(rest)
        - _bd0(j, np.full(j.size, count * p)) - _bd0(rest, np.full(j.size, count * q))
    )
    pmf = np.empty(count + 1)
    pmf[1:-1] = np.exp(log_pmf) * np.sqrt(count / (2.0 * math.pi * j * rest))
    pmf[0] = math.exp(count * (math.log1p(-p) if p < 0.5 else math.log(q)))
    pmf[-1] = math.exp(count * (math.log(p) if p < 0.5 else math.log1p(-q)))
    # Left sums below the mode, one minus right sums from it on.
    mode = min(int((count + 1) * p), count)
    out = np.empty(count + 1)
    np.cumsum(pmf[:mode], out=out[:mode])
    np.subtract(1.0, np.cumsum(pmf[:mode:-1])[::-1], out=out[mode:-1])
    out[-1] = 1.0
    return out
