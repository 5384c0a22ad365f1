"""Experiment orchestration.

Ties the other modules together: picks tree sizes whose subsequence
parameter ``frac(lg n - lg lg n)`` sits near a target, simulates record
counts with seeded per-sample substreams, rescales them, compares the
empirical law against the limit CDF with a Kolmogorov-Smirnov statistic,
cross-checks the empirical mean against the exact expected count, and
writes deterministic CSV/JSON reports.

Each size's samples come from one record batch, which runs on
``threads`` worker threads (default: ``KCUT_THREADS``, else every CPU;
see :func:`kcut.cutsim.resolve_threads`).  Every sample owns its
substream, so the output is byte-identical for any thread count.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import platform
import warnings
from dataclasses import dataclass

import numpy as np

from . import cutsim, exactmean, limitdist, series

__all__ = [
    "ConfigurationWarning",
    "ExperimentConfig",
    "ExperimentReport",
    "NResult",
    "gamma_of",
    "circular_gamma_distance",
    "subsequence_select",
    "ks_statistic",
    "ks_two_sample",
    "run_experiment",
    "write_report",
]


class ConfigurationWarning(UserWarning):
    """A configuration is legal but cannot be satisfied as stated."""


# ---------------------------------------------------------------------------
# Subsequence selection.
# ---------------------------------------------------------------------------


def gamma_of(n: int) -> float:
    """Subsequence parameter ``frac(lg n - lg lg n)`` of a single size,
    as :attr:`kcut.limitdist.ScaleParams.gamma` computes it."""
    n = cutsim._as_int("n", n)
    if n < 4:
        raise ValueError(f"gamma_of needs n >= 4, got {n!r}")
    return limitdist._subsequence_gamma(n)


def circular_gamma_distance(x: float, y: float) -> float:
    """Distance between two subsequence parameters on the unit circle.

    The parameter lives on a circle (0 and 1 describe the same limit),
    so a size with fractional part 0.999 is close to a target of 0.
    """
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _solve_rung(target: float) -> float | None:
    """Solve ``x - lg x = target`` for ``x >= 4`` (that is, ``n >= 16``).

    ``x - lg x`` is strictly increasing there with minimum 2 at the
    left edge, so targets below 2 have no solution.  The fixed-point
    map ``x -> target + lg x`` is a contraction on the branch, so a few
    iterations give full precision.
    """
    if target < 2.0:
        return None
    x = max(target + 2.0, 4.0)
    for _ in range(80):
        nxt = target + math.log2(x)
        if abs(nxt - x) < 1e-14 * max(1.0, x):
            return nxt
        x = nxt
    return x


def subsequence_select(
    gamma: float,
    n_min: int,
    n_max: int,
    count: int,
    delta: float = 0.02,
) -> list[int]:
    """Sizes in ``[n_min, n_max]`` whose parameter is within ``delta``
    of ``gamma``, at most ``count`` of them, spread geometrically.

    Candidate sizes are the integer roundings of the exact solutions of
    ``lg n - lg lg n = j + gamma`` (one per integer ``j``), which is
    both fast and scale-free.  If more candidates exist than requested,
    the ones closest (in log) to a geometric grid over the range are
    kept.  An empty result is reported as a
    :class:`ConfigurationWarning`, not an error: some (range, gamma,
    delta) combinations genuinely contain no admissible size.
    """
    if n_min < 16 or n_min >= n_max:
        raise ValueError(
            f"need 16 <= n_min < n_max, got n_min={n_min!r}, n_max={n_max!r}"
        )
    if count < 1:
        raise ValueError(f"count must be positive, got {count!r}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta!r}")
    gamma = gamma % 1.0

    g_lo = math.log2(n_min) - math.log2(math.log2(n_min))
    g_hi = math.log2(n_max) - math.log2(math.log2(n_max))
    rungs: list[int] = []
    for j in range(math.floor(g_lo - gamma) - 1, math.ceil(g_hi - gamma) + 2):
        x = _solve_rung(j + gamma)
        if x is None:
            continue
        center = round(2.0**x)
        best: tuple[float, int] | None = None
        for n in (center - 1, center, center + 1):
            if n < max(n_min, 16) or n > n_max:
                continue
            dist = circular_gamma_distance(gamma_of(n), gamma)
            if dist <= delta and (best is None or dist < best[0]):
                best = (dist, n)
        if best is not None and best[1] not in rungs:
            rungs.append(best[1])
    rungs.sort()
    if not rungs:
        warnings.warn(
            f"no size in [{n_min}, {n_max}] has its subsequence parameter "
            f"within {delta} of {gamma}",
            ConfigurationWarning,
            stacklevel=2,
        )
        return []
    if len(rungs) <= count:
        return rungs

    # Thin to a geometric spread: walk anchors from n_min to n_max and
    # greedily take the nearest unused rung (in log space).
    if count == 1:
        anchors = [math.sqrt(n_min * n_max)]
    else:
        ratio = (n_max / n_min) ** (1.0 / (count - 1))
        anchors = [n_min * ratio**i for i in range(count)]
    chosen: list[int] = []
    for anchor in anchors:
        pick = min(
            (n for n in rungs if n not in chosen),
            key=lambda n: abs(math.log2(n) - math.log2(anchor)),
        )
        chosen.append(pick)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics.
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of ``samples`` and
    the reference ``cdf``, a vectorized callable that is called once on
    the sorted samples and must return an array of the same shape."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("ks_statistic needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"cdf returned shape {f.shape} for {x.shape}")
    n = x.size
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(
        max(np.max(np.abs(f - steps_hi)), np.max(np.abs(f - steps_lo)))
    )


def ks_two_sample(first, second) -> float:
    """Sup-norm distance between two empirical CDFs."""
    a = np.sort(np.asarray(first, dtype=float))
    b = np.sort(np.asarray(second, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs nonempty samples on both sides")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


# ---------------------------------------------------------------------------
# Configs and reports.
# ---------------------------------------------------------------------------


_INT_FIELDS = (
    "k", "r", "samples", "seed", "n_min", "n_max", "n_count", "threads"
)
_OPTIONAL_FIELDS = ("r", "n_min", "n_max", "threads")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a (k, r-or-total, variant) pipeline over sizes.

    Sizes come either from ``n_list`` (explicit) or from
    ``subsequence_select(gamma_target, n_min, n_max, n_count)``.
    ``r = None`` means "total" mode: the sum of all record orders is
    rescaled with the order-weighted centering and compared against the
    order-1 limit family.
    """

    k: int
    r: int | None = None
    variant: str = "node"
    gamma_target: float = 0.0
    n_list: tuple[int, ...] | None = None
    n_min: int | None = None
    n_max: int | None = None
    n_count: int = 3
    samples: int = 1000
    seed: int = 0
    delta: float = 0.02
    csv_path: str | None = None
    json_path: str | None = None
    threads: int | None = None

    def __post_init__(self) -> None:
        # JSON gives floats, strings and booleans as readily as ints.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            object.__setattr__(self, name, cutsim._as_int(name, value))
        for name in ("gamma_target", "delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        cutsim._int_in("k", self.k, 1, series.MAX_K)
        if self.r is not None and not 1 <= self.r <= self.k:
            raise ValueError(
                f"r must be None or in [1, k={self.k}], got {self.r!r}"
            )
        if self.variant not in ("node", "edge"):
            raise ValueError(
                f"variant must be node or edge, got {self.variant!r}"
            )
        if not 0.0 <= self.gamma_target < 1.0:
            raise ValueError(
                f"gamma_target must lie in [0, 1), got {self.gamma_target!r}"
            )
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples!r}")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta!r}")
        if self.n_list is not None:
            if not isinstance(self.n_list, (list, tuple)):
                raise ValueError(
                    f"n_list must be a list of integers, got {self.n_list!r}"
                )
            ints = tuple(cutsim._as_int("every n in n_list", n) for n in self.n_list)
            object.__setattr__(self, "n_list", ints)
            if not self.n_list:
                raise ValueError("n_list must not be empty when given")
            if any(n < 16 for n in self.n_list):
                raise ValueError("every n in n_list must be >= 16")
        elif self.n_min is None or self.n_max is None:
            raise ValueError(
                "either n_list or both n_min and n_max must be given"
            )
        if self.threads is not None:
            cutsim.resolve_threads(self.threads)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        return ExperimentConfig(**data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["n_list"] is not None:
            out["n_list"] = list(out["n_list"])
        return out

    def sizes(self) -> list[int]:
        if self.n_list is not None:
            return list(self.n_list)
        return subsequence_select(
            self.gamma_target, self.n_min, self.n_max, self.n_count, self.delta
        )


@dataclass(frozen=True)
class NResult:
    """Per-size statistics of one experiment."""

    n: int
    gamma_n: float
    sample_count: int
    raw_mean: float
    raw_variance: float
    rescaled_mean: float
    rescaled_variance: float
    ks_vs_limit: float
    exact_mean: float
    mean_gap_sigmas: float


_CSV_COLUMNS = [f.name for f in dataclasses.fields(NResult)]


@dataclass(frozen=True)
class ExperimentReport:
    """Everything needed to reproduce and audit one experiment run."""

    config: ExperimentConfig
    results: tuple[NResult, ...]
    versions: dict
    # Certificates, JSON only, so the CSV is unchanged: the largest error
    # bound of the exact_mean column, and the certificate of the limit
    # CDF the KS column used (left out if no size drew samples).
    numerics: dict

    def csv_text(self) -> str:
        """Deterministic CSV: header row, LF endings, 17-significant-
        digit floats."""
        buf = io.StringIO()
        buf.write(",".join(_CSV_COLUMNS) + "\n")
        for res in self.results:
            cells = []
            for name in _CSV_COLUMNS:
                value = getattr(res, name)
                if isinstance(value, int):
                    cells.append(str(value))
                else:
                    cells.append(format(float(value), ".17g"))
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "versions": dict(self.versions),
            "results": [dataclasses.asdict(r) for r in self.results],
            "numerics": self.numerics,
        }

    def json_text(self) -> str:
        return json.dumps(self.json_dict(), indent=2, sort_keys=True) + "\n"


def _versions() -> dict:
    from . import __version__

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# The experiment itself.
# ---------------------------------------------------------------------------


def _simulate(n: int, config: ExperimentConfig, threads: int) -> np.ndarray:
    """Record counts of shape ``(samples, k)`` from one batch call."""
    batch = (
        cutsim.simulate_edge_records_batch
        if config.variant == "edge"
        else cutsim.simulate_records_batch
    )
    return batch(
        cutsim.CompleteTree(n), config.k, config.seed, config.samples,
        threads=threads,
    )


def _exact_mean(n: int, config: ExperimentConfig) -> tuple[float, float]:
    """The exact mean of the counted records and its error bound."""
    orders = range(1, config.k + 1) if config.r is None else (config.r,)
    means = [
        exactmean._expected_records(
            exactmean.MeanQuery(n=n, k=config.k, r=r, variant=config.variant)
        )
        for r in orders
    ]
    return sum(m for m, _ in means), sum(e for _, e in means)


def _one_size(
    n: int,
    config: ExperimentConfig,
    p: limitdist.LimitParams,
    threads: int,
    exact: float,
) -> NResult:
    gamma_n = gamma_of(n)
    if config.samples == 0:
        nan = float("nan")
        return NResult(
            n=n,
            gamma_n=gamma_n,
            sample_count=0,
            raw_mean=nan,
            raw_variance=nan,
            rescaled_mean=nan,
            rescaled_variance=nan,
            ks_vs_limit=nan,
            exact_mean=exact,
            mean_gap_sigmas=nan,
        )
    counts = _simulate(n, config, threads)
    raw = (
        counts.sum(axis=1) if config.r is None else counts[:, config.r - 1]
    ).astype(float)
    rescaled = cutsim.rescale_counts(raw, config.r, config.k, n)
    ks = ks_statistic(rescaled, lambda w: limitdist.limit_cdf(w, p))
    raw_mean = float(raw.mean())
    raw_var = float(raw.var(ddof=1)) if raw.size > 1 else float("nan")
    se = (
        math.sqrt(raw_var / raw.size)
        if raw.size > 1 and raw_var > 0.0
        else float("nan")
    )
    gap = abs(raw_mean - exact)
    sigmas = gap / se if se and not math.isnan(se) else float("inf")
    if gap == 0.0:
        sigmas = 0.0
    return NResult(
        n=n,
        gamma_n=gamma_n,
        sample_count=int(raw.size),
        raw_mean=raw_mean,
        raw_variance=raw_var,
        rescaled_mean=float(rescaled.mean()),
        rescaled_variance=(
            float(rescaled.var(ddof=1)) if rescaled.size > 1 else float("nan")
        ),
        ks_vs_limit=ks,
        exact_mean=exact,
        mean_gap_sigmas=sigmas,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate, rescale, and compare against the limit for every
    configured size.

    The limit family is evaluated at ``config.gamma_target`` (sizes are
    presumed chosen on that subsequence).  Any error raised while
    processing a size is re-raised with the ``(n, seed)`` context
    prefixed to its message.
    """
    sizes = config.sizes()
    r_eff = 1 if config.r is None else config.r
    p = limitdist.LimitParams(r_eff, config.k, config.gamma_target)
    threads = cutsim.resolve_threads(config.threads)
    results, abserr = [], 0.0
    for n in sizes:
        try:
            exact, bound = _exact_mean(n, config)
            results.append(_one_size(n, config, p, threads, exact))
        except Exception as exc:
            exc.args = (f"n={n}, seed={config.seed}: {exc}",)
            raise
        abserr = max(abserr, bound)
    numerics = {"exact_mean_abserr": abserr}
    if config.samples:
        numerics.update(limitdist.cdf_certificate(p))
    return ExperimentReport(
        config=config,
        results=tuple(results),
        versions=_versions(),
        numerics=numerics,
    )


def write_report(report: ExperimentReport) -> list[str]:
    """Write the report's CSV/JSON files (as configured); returns the
    paths written."""
    written = []
    if report.config.csv_path:
        with open(
            report.config.csv_path, "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write(report.csv_text())
        written.append(report.config.csv_path)
    if report.config.json_path:
        with open(
            report.config.json_path, "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write(report.json_text())
        written.append(report.config.json_path)
    return written
