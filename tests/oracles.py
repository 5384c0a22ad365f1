"""Plain reference implementations that the package is tested against.

Each computes its quantity the slow, direct way and shares no logic
with the code it checks: node heights and subtree sizes from the heap
indices, the cutting procedure run one sample at a time, the exact
cut-count law of tiny trees by enumeration, the Levy measure's block
integrals by QUADPACK's oscillatory rule, its second moment by adaptive
quadrature of the density, and the xi array with a clock drawn for
every node.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from kcut import limitdist, series, specfun
from kcut.cutsim import CompleteTree, _int_in, substream
from kcut.limitdist import LimitParams, ScaleParams


def height(n: int, i: int) -> int:
    """Depth of node ``i`` of the complete tree on ``n`` nodes; the root
    (i=1) has height 0."""
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} outside [1, {n}]")
    return i.bit_length() - 1


def subtree_size(n: int, i: int) -> int:
    """Nodes in the subtree rooted at ``i``, via interval clamping: the
    descendants of ``i`` at depth ``d`` below it occupy indices ``[i *
    2**d, (i + 1) * 2**d - 1]`` intersected with ``[1, n]``."""
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} outside [1, {n}]")
    size = 0
    lo, hi = i, i
    while lo <= n:
        size += min(hi, n) - lo + 1
        lo, hi = 2 * lo, 2 * hi + 1
    return size


def simulate_process(
    tree: CompleteTree, k: int, seed: int, sample_index: int = 0
) -> int:
    """Run the cutting procedure once and return the number of cuts
    until the root dies.

    This is the plain reference that ``simulate_process_batch`` is
    tested against row for row.  Each step selects uniformly among nodes
    whose own counter and all of whose ancestors' counters are still
    below ``k`` (reachability is evaluated lazily from the counters;
    detached subtrees are never updated).  One uniform variate is
    consumed per cut.
    """
    k = _int_in("k", k, 1)
    rng = substream(seed, sample_index)
    n = tree.n
    cnt = [0] * (n + 1)
    total = 0
    while True:
        connected: list[int] = []
        alive = [False] * (n + 1)
        for v in range(1, n + 1):
            if cnt[v] < k and (v == 1 or alive[v >> 1]):
                alive[v] = True
                connected.append(v)
        pick = connected[int(rng.random() * len(connected))]
        cnt[pick] += 1
        total += 1
        if pick == 1 and cnt[1] == k:
            return total


_BRUTE_MAX_N = 4
_BRUTE_MAX_K = 3


def brute_force_distribution(n: int, k: int) -> dict[int, Fraction]:
    """Exact pmf of the total cut count, by enumeration.

    States are the per-node counter vectors; transition probabilities
    are uniform over the connected set.  Only feasible for ``n <= 4``,
    ``k <= 3`` (the configured caps).
    """
    if not 1 <= n <= _BRUTE_MAX_N:
        raise ValueError(f"brute force capped at n <= {_BRUTE_MAX_N}")
    if not 1 <= k <= _BRUTE_MAX_K:
        raise ValueError(f"brute force capped at k <= {_BRUTE_MAX_K}")

    @lru_cache(maxsize=None)
    def remaining(state: tuple[int, ...]) -> tuple[tuple[int, Fraction], ...]:
        connected = [
            v
            for v in range(1, n + 1)
            if state[v - 1] < k
            and all(state[(v >> s) - 1] < k for s in range(1, v.bit_length()))
        ]
        p = Fraction(1, len(connected))
        dist: dict[int, Fraction] = {}
        for v in connected:
            nxt = list(state)
            nxt[v - 1] += 1
            if v == 1 and nxt[0] == k:
                dist[1] = dist.get(1, Fraction(0)) + p
                continue
            for more, q in remaining(tuple(nxt)):
                dist[more + 1] = dist.get(more + 1, Fraction(0)) + p * q
        return tuple(sorted(dist.items()))

    return dict(remaining((0,) * n))


def record_prob_quad(r: int, k: int, ancestors: int, y: float) -> float:
    """``integral_0^y g_r(x) Q(k, x)**ancestors dx`` by ``quad`` on
    pieces split at 0.5, 2, 8 and 32 widths ``(k!/ancestors)**(1/k)``,
    over which ``Q(k, x)**ancestors`` falls, with Q from
    ``scipy.special.gammaincc``."""
    width = (math.factorial(k) / max(ancestors, 1)) ** (1.0 / k)
    edges = [0.0, *(c * width for c in (0.5, 2.0, 8.0, 32.0) if c * width < y), y]
    lgamma_r = math.lgamma(r)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0 if r > 1 else 1.0
        density = math.exp((r - 1) * math.log(x) - x - lgamma_r)
        return density * special.gammaincc(k, x) ** ancestors

    return math.fsum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=5e-14, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def levy_block_integrals(
    r: int, k: int, gamma: float, tau: float, s_max: int = 80
) -> tuple[complex, complex]:
    """``V(tau) = integral_1^2 (e^{i tau y} - 1) d nu(y)`` and ``Vm(tau) =
    V(tau) - i tau integral_1^2 y d nu(y)`` for the Levy measure of the
    limit law with shape ``a = r/k`` and subsequence parameter ``gamma``.

    The density is the series ``(gamma(a)**2 / y**2) * sum_{s=1}^{s_max}
    4**(c-s) exp(theta_s) theta_s**(1-a)``, ``theta_s =
    gammainccinv(a, 2**(c-s))``, summed point by point.  Its phase ``c``
    jumps from 1 to 0 at the wrap ``2**(1 - c_1)``, ``c_1 = frac(gamma -
    lg gamma(a))``, so [1, 2] is cut there, and on each piece the phase is
    counted from the piece's right end, where it is 1 at the wrap and
    ``c_1`` at 2.  The oscillatory parts are QUADPACK's QAWO rule
    (``quad`` with ``weight="cos"`` and ``"sin"``), the mass and the mean
    plain adaptive quadrature; each must report an error below 1e-11.
    """
    a = r / k
    ga = math.gamma(a)
    c_1 = (gamma - math.log2(ga)) % 1.0
    wrap = 2.0 ** (1.0 - c_1)
    s = np.arange(1, s_max + 1)

    def quad(f, lo: float, hi: float, **weight) -> float:
        value, abserr = integrate.quad(
            f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400, **weight
        )
        if abserr > 1e-11:
            raise ArithmeticError(f"oracle quadrature error {abserr:.1e}")
        return value

    cos_sin, mass, mean = 0.0, 0.0, 0.0
    for lo, hi, c_hi in ((1.0, wrap, 1.0), (wrap, 2.0, c_1)):
        if not hi > lo:
            continue

        def density(y: float, hi=hi, c_hi=c_hi) -> float:
            # QUADPACK's nodes can overshoot the piece's end by an ulp.
            c = min(c_hi, c_hi + math.log2(y / hi))
            theta = special.gammainccinv(a, 2.0 ** (c - s))
            terms = 4.0 ** (c - s) * np.exp(theta) * theta ** (1.0 - a)
            return ga * ga / (y * y) * math.fsum(terms)

        re = quad(density, lo, hi, weight="cos", wvar=tau)
        im = quad(density, lo, hi, weight="sin", wvar=tau)
        cos_sin += complex(re, im)
        mass += quad(density, lo, hi)
        mean += quad(lambda y: y * density(y), lo, hi)
    v = cos_sin - mass
    return v, v - 1j * tau * mean


def levy_block_moment2(p: LimitParams, lo: float, hi: float) -> float:
    """``integral_lo^hi x**2 d nu`` by adaptive quadrature of the
    package's scalar density, cut at the wrap points ``gamma(a) * 2**(K
    - gamma)`` inside the interval (no closed antiderivative exists for
    this moment).  The interval is checked as
    :func:`kcut.limitdist.levy_block_mean` checks it; a quadrature error
    above ``max(1e-11, 1e-9 * |value|)`` raises ``NumericError``."""
    k_lo, k_hi = limitdist._c_of(limitdist._interval(lo, hi), p)[0]
    pts = math.gamma(p.a) * 2.0 ** (np.arange(k_lo + 1, k_hi + 1) - p.gamma)
    pts = pts[(lo < pts) & (pts < hi)]
    value, abserr = integrate.quad(
        lambda x: x * x * limitdist.levy_density(x, p),
        lo,
        hi,
        points=pts if pts.size else None,
        epsabs=1.0e-12,
        epsrel=1.0e-12,
        limit=200,
    )
    if abserr > max(1.0e-11, 1.0e-9 * abs(value)):
        raise limitdist.NumericError(
            f"moment quadrature error {abserr:.2e} above tolerance"
        )
    return value


def xi_weights(scale: ScaleParams) -> np.ndarray:
    """``m * n_v / n`` for all nodes of height at most L, in index order,
    from :meth:`kcut.cutsim.CompleteTree.size_classes`.  The weights are
    exact ratios of Python ints, so any ``n`` works."""
    n, m = scale.n, scale.m
    if (1 << (scale.L + 1)) - 1 > n:
        raise ValueError("height cutoff exceeds the tree; n too small")
    levels = CompleteTree(n).size_classes()[: scale.L + 1]
    sizes, counts = zip(*(c for level in levels for c in level))
    return np.repeat([m * size / n for size in sizes], counts)


def xi_sampler_dense(
    scale: ScaleParams,
    p: LimitParams,
    seed: int,
    n_samples: int,
    first_index: int = 0,
) -> np.ndarray:
    """The xi draws of :func:`kcut.limitdist.xi_sampler_batch` with a
    clock for every node, one draw at a time: draw ``i`` sums row ``v``
    of ``substream(seed, first_index + i)``'s node-major ``(N, k)``
    exponentials in order into the Gamma(k) clock ``T_v``, and returns
    ``1 - C3 * (sum_v w_v gamma(a) Q(a, m T_v**k / k!) - centre)`` over
    all ``N`` nodes, with the package's centre; terms past ``q_inv(a,
    1e-13 / sum_v w_v gamma(a))`` count as 0.  The law oracle of the
    sparse sampler: it draws ``k N`` exponentials where that one reads a
    few uniforms per clock below the cut."""
    table = series.constants(p.k, p.r)
    ga_weights = math.gamma(p.a) * xi_weights(scale)
    shift = 1.0 + table.c3 * limitdist._xi_centre(scale, p)
    z_cut = specfun.q_inv(p.a, 1e-13 / math.fsum(ga_weights))
    out = np.empty(n_samples)
    for i in range(n_samples):
        rng = substream(seed, first_index + i)
        exps = rng.standard_exponential((ga_weights.size, p.k))
        clocks = exps[:, 0].copy()
        for r in range(1, p.k):
            clocks += exps[:, r]
        z = scale.m / math.factorial(p.k) * clocks**p.k
        near = z <= z_cut
        terms = ga_weights[near] * specfun.q(p.a, z[near])
        out[i] = shift - table.c3 * terms.sum()
    return out
