"""Correctness checks on the outputs of the benchmark's workloads.

Each check compares an output with a computation made apart from the
code that produced it, or with a property the method must have, never
with a stored copy of an earlier output.  A check raises
:class:`CheckFailed` with the reason; ``test_bench_checks.py`` feeds
each one a deliberately wrong input.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def fail(message: str) -> None:
    raise CheckFailed(message)


# Sample means may sit this many standard errors from the exact mean.
# Record counts are skewed but light-tailed at the sizes used (CV at
# most 0.45), so for at least 200 samples the Gaussian tail applies: a
# correct program trips one comparison with probability about 6e-7.
MEAN_Z_MAX = 5.0

# Two-sample KS level.  The critical value sqrt(-ln(level/2)/2) is
# conservative for the discrete totals compared here.
KS_LEVEL = 1.0e-6

# Acceptance check 11a's threshold for the xi draws at n = 2**160.
XI_KS_MAX = 0.05

# An experiment's |mean - exact| / se must stay below this.
GAP_SIGMAS_MAX = 5.0

# The limit CDF at the ends of the benchmark's grid must be this close
# to 0 and 1 (its left tail falls like 1/|w|, so a finite grid ends
# short of 0).
CDF_END_TOL = 0.01

# limit_cdf certifies its values to 1e-4 (it raises NumericError beyond
# that), so a decrease up to that size is inversion error, not a fault.
# At the benchmark's grid the CDF falls by up to 2.6e-9 at each of the
# ten points above w = 7, where it is within 1e-7 of 1.
CDF_MONOTONE_TOL = 1.0e-4


def records_monotone(counts: np.ndarray) -> None:
    """Each sample's record count is non-increasing in the order r: an
    r-record's r-th clock sum lies below the ancestor minimum, and the
    clock sums increase with r."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] == 0:
        fail(f"record counts need shape (samples, k), got {counts.shape}")
    bad = np.nonzero(np.any(np.diff(counts, axis=1) > 0, axis=1))[0]
    if bad.size:
        fail(
            f"{bad.size} samples have counts rising in r, first "
            f"{counts[bad[0]].tolist()} at row {bad[0]}"
        )


def mean_near_exact(values: np.ndarray, exact: float, label: str) -> None:
    """The sample mean lies within MEAN_Z_MAX standard errors of the
    exact mean."""
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    z = abs(values.mean() - exact) / se if se > 0 else math.inf
    if not z <= MEAN_Z_MAX:
        fail(
            f"{label}: sample mean {values.mean():.6g} is {z:.2f} standard "
            f"errors from the exact mean {exact:.6g}"
        )


def ks_two_sample(first: np.ndarray, second: np.ndarray) -> float:
    """Sup distance between two empirical CDFs."""
    a = np.sort(np.asarray(first, dtype=float))
    b = np.sort(np.asarray(second, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def same_law(first: np.ndarray, second: np.ndarray, label: str) -> None:
    """Two samples agree in law: their two-sample KS distance is below
    the critical value at KS_LEVEL."""
    n, m = len(first), len(second)
    crit = math.sqrt(-math.log(KS_LEVEL / 2.0) / 2.0) * math.sqrt(
        (n + m) / (n * m)
    )
    stat = ks_two_sample(first, second)
    if not stat < crit:
        fail(f"{label}: two-sample KS {stat:.4f} >= critical {crit:.4f}")


def same_rows(whole: np.ndarray, part: np.ndarray, first: int, label: str) -> None:
    """Rows computed on their own from index ``first`` equal the same
    rows of the whole range."""
    want = np.asarray(whole)[first : first + len(part)]
    if want.shape != np.shape(part) or not np.array_equal(want, part):
        fail(f"{label}: rows from first_index={first} differ from the whole run")


def ks_one_sample(draws: np.ndarray, cdf_sorted: np.ndarray) -> float:
    """KS distance of ``draws`` to a CDF given by its values at the
    sorted draws."""
    f = np.asarray(cdf_sorted, dtype=float)
    n = f.size
    if n != np.size(draws) or n == 0:
        fail(f"need one CDF value per draw, got {n} for {np.size(draws)}")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_at_most(stat: float, limit: float, label: str) -> None:
    if not stat <= limit:
        fail(f"{label}: KS {stat:.4f} above {limit}")


def ks_falls(first: float, second: float, label: str) -> None:
    if not second < first:
        fail(f"{label}: KS did not fall ({first:.4f} -> {second:.4f})")


def cdf_grid(w: np.ndarray, values: np.ndarray) -> None:
    """A CDF on an increasing grid is non-decreasing up to
    CDF_MONOTONE_TOL, lies in [0, 1], and is close to 0 and 1 at the
    grid's ends."""
    w = np.asarray(w, dtype=float)
    f = np.asarray(values, dtype=float)
    if w.shape != f.shape or w.size < 2 or np.any(np.diff(w) <= 0):
        fail("CDF grid must be increasing with one value per point")
    if not np.all(np.isfinite(f)) or f.min() < 0.0 or f.max() > 1.0:
        fail(f"CDF leaves [0, 1]: min {f.min()}, max {f.max()}")
    drop = np.nonzero(np.diff(f) < -CDF_MONOTONE_TOL)[0]
    if drop.size:
        i = drop[0]
        fail(f"CDF decreases at w={w[i + 1]:.6g}: {f[i]:.17g} -> {f[i + 1]:.17g}")
    if f[0] > CDF_END_TOL or f[-1] < 1.0 - CDF_END_TOL:
        fail(f"CDF ends at {f[0]:.4g} and {f[-1]:.6g}, not near 0 and 1")


def subsequence_gamma(n: int) -> float:
    lg = math.log2(n)
    return (lg - math.log2(lg)) % 1.0


def sizes_on_subsequence(sizes, gamma: float, delta: float) -> None:
    """Every size's frac(lg n - lg lg n) lies within ``delta`` of
    ``gamma`` on the unit circle."""
    if not sizes:
        fail("no sizes were chosen")
    for n in sizes:
        d = abs(subsequence_gamma(n) - gamma) % 1.0
        if min(d, 1.0 - d) > delta:
            fail(
                f"n={n} has gamma {subsequence_gamma(n):.6f}, not within "
                f"{delta} of {gamma:.6f}"
            )


def experiment_results(results) -> None:
    """Per size: the mean gap stays below GAP_SIGMAS_MAX standard errors
    and the KS distance to the limit is finite and inside (0, 1)."""
    for res in results:
        if not res.mean_gap_sigmas < GAP_SIGMAS_MAX:
            fail(f"n={res.n}: mean gap {res.mean_gap_sigmas} sigmas")
        if not (math.isfinite(res.ks_vs_limit) and 0.0 < res.ks_vs_limit < 1.0):
            fail(f"n={res.n}: KS vs limit {res.ks_vs_limit} not in (0, 1)")
