"""Tools for the k-cut process on rooted complete binary trees.

The package is organised in layers:

- :mod:`kcut.specfun` -- the special functions, in numpy: the regularized
  upper incomplete gamma ``Q`` and its inverse, scalar or array (the one
  route to both used throughout), ``log Q`` at integer shapes, the sine
  integral and binomial CDF tables.
- :mod:`kcut.series` -- exact rational power-series expansions that produce
  the coefficient tables feeding the moment asymptotics.
- :mod:`kcut.cutsim` -- vectorized batch simulators for the cutting
  process itself and for the equivalent record construction (node and
  edge variants), with one draw order per (seed, sample index) and one
  batch runner that runs every batch on worker threads within one
  memory budget; and ``CompleteTree.size_classes``, the one source of
  the tree's shape.  The plain single-sample process run and the
  brute-force pmf of tiny trees are test oracles in ``tests/oracles.py``.
- :mod:`kcut.exactmean` -- exact (quadrature-based) and asymptotic moments
  of record counts.
- :mod:`kcut.limitdist` -- the infinitely divisible limit law: Levy density,
  tail, drift, characteristic function, CDF, and a fast approximate sampler.
- :mod:`kcut.harness` -- experiment drivers (subsequence selection,
  Kolmogorov-Smirnov statistics, CSV/JSON reporting).
- :mod:`kcut.cli` -- the ``kcut`` command-line entry point.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
