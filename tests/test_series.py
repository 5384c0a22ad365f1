"""Tests for the exact series expansions and derived constants.

The expansion tables are checked against an independent oracle built in
this file: the base series is raised to *integer* powers m by naive
truncated polynomial multiplication, and the coefficient of each x-power
is then interpolated as a polynomial in m (Lagrange, exact rationals).
No code is shared with the module's route through the logarithm of the
base series.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from kcut import series

# ---------------------------------------------------------------------------
# Independent oracle: integer-power expansion + Lagrange interpolation in m.
# ---------------------------------------------------------------------------


def _oracle_mul(u: list[F], v: list[F], b_cap: int) -> list[F]:
    out = [F(0)] * (b_cap + 1)
    for i, ci in enumerate(u):
        if ci == 0:
            continue
        for j, cj in enumerate(v):
            if i + j > b_cap:
                break
            out[i + j] += ci * cj
    return out


def _oracle_base(k: int, b_cap: int) -> list[F]:
    """exp(x**k/k!) * Q(k, x) as a coefficient list, independently built."""
    exp_neg = [F((-1) ** b, math.factorial(b)) for b in range(b_cap + 1)]
    poly = [F(0)] * (b_cap + 1)
    for i in range(min(k, b_cap + 1)):
        poly[i] = F(1, math.factorial(i))
    q_ser = _oracle_mul(exp_neg, poly, b_cap)
    exp_pos = [F(0)] * (b_cap + 1)
    n = 0
    while n * k <= b_cap:
        exp_pos[n * k] = F(1, math.factorial(k) ** n * math.factorial(n))
        n += 1
    return _oracle_mul(exp_pos, q_ser, b_cap)


def _oracle_h0(k: int, b_cap: int) -> list[F]:
    """exp(-x) / (2 Q(k,x) - 1) via a geometric series in 2(Q - 1)."""
    exp_neg = [F((-1) ** b, math.factorial(b)) for b in range(b_cap + 1)]
    poly = [F(0)] * (b_cap + 1)
    for i in range(min(k, b_cap + 1)):
        poly[i] = F(1, math.factorial(i))
    q_ser = _oracle_mul(exp_neg, poly, b_cap)
    u = [2 * c for c in q_ser]
    u[0] -= 2  # u = 2Q - 2, so 2Q - 1 = 1 + u with u(0) = 0
    inv = [F(0)] * (b_cap + 1)
    inv[0] = F(1)
    power = [F(0)] * (b_cap + 1)
    power[0] = F(1)
    for _ in range(b_cap):
        power = _oracle_mul(power, [-c for c in u], b_cap)
        inv = [a + b for a, b in zip(inv, power)]
    return _oracle_mul(exp_neg, inv, b_cap)


def _oracle_m_polynomials(
    base: list[F], k: int, b_cap: int, deg: int
) -> dict[int, list[F]]:
    """For each x-power b, the coefficient of x**b in base**m as a
    polynomial in m (coefficient list indexed by m-power), found by
    evaluating at m = 0..deg and Lagrange-interpolating exactly."""
    samples: list[list[F]] = []
    power = [F(0)] * (b_cap + 1)
    power[0] = F(1)
    samples.append(list(power))
    for _ in range(deg):
        power = _oracle_mul(power, base, b_cap)
        samples.append(list(power))
    nodes = list(range(deg + 1))
    basis_polys: list[list[F]] = []
    for m_i in nodes:
        basis = [F(1)]
        denom = F(1)
        for m_j in nodes:
            if m_j == m_i:
                continue
            # Multiply the coefficient list by the linear factor (m - m_j).
            basis = [F(0)] + basis
            for p in range(len(basis) - 1):
                basis[p] -= F(m_j) * basis[p + 1]
            denom *= F(m_i - m_j)
        basis_polys.append([c / denom for c in basis])
    out: dict[int, list[F]] = {}
    for b in range(b_cap + 1):
        poly = [F(0)] * (deg + 1)
        for idx, m_i in enumerate(nodes):
            w = samples[m_i][b]
            for p, c in enumerate(basis_polys[idx]):
                if p <= deg:
                    poly[p] += w * c
        out[b] = poly
    return out


def _lagrange_check(
    table: series.BiSeries, base: list[F], k: int, b_cap: int
) -> None:
    deg = table.j_cap
    oracle = _oracle_m_polynomials(base, k, b_cap, deg)
    for b in range(b_cap + 1):
        for j in range(deg + 1):
            assert table.get(j, b) == oracle[b][j], (j, b)


@pytest.mark.parametrize("k", range(1, series.MAX_K + 1))
def test_expand_core_matches_interpolation_oracle(k: int) -> None:
    table = series.expand_core(k)
    base = _oracle_base(k, table.b_cap)
    _lagrange_check(table, base, k, table.b_cap)


@pytest.mark.parametrize("k", range(1, series.MAX_K + 1))
def test_expand_h0_matches_interpolation_oracle(k: int) -> None:
    table = series.expand_h0(k)
    b_cap = table.b_cap
    base = _oracle_base(k, b_cap)
    h0 = _oracle_h0(k, b_cap)
    deg = table.j_cap
    oracle = _oracle_m_polynomials(base, k, b_cap, deg)
    # Multiply each m-polynomial table entry by the h0 series in x.
    for b in range(b_cap + 1):
        for j in range(deg + 1):
            acc = F(0)
            for b1, c1 in enumerate(h0):
                if b1 > b:
                    break
                acc += c1 * oracle[b - b1][j]
            assert table.get(j, b) == acc, (j, b)


# ---------------------------------------------------------------------------
# Published / pinned coefficient values.
# ---------------------------------------------------------------------------


def test_c5_k1_all_zero() -> None:
    table = series.c5_table(1)
    assert set(table) == {(1, 2)}
    assert all(v == 0 for v in table.values())


def test_c5_k2_values() -> None:
    table = series.c5_table(2)
    assert table[(1, 3)] == F(1, 3)
    assert table[(1, 4)] == F(-1, 4)
    assert table[(2, 6)] == F(1, 18)


def test_c6_k1_value() -> None:
    assert series.c6_table(1)[(1, 2)] == 0


def test_c6_k2_values() -> None:
    table = series.c6_table(2)
    assert table[(1, 3)] == F(1, 3)
    assert table[(1, 4)] == F(-7, 12)
    assert table[(2, 6)] == F(1, 18)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_index_domain(k: int) -> None:
    expected = {
        (j, b)
        for j in range(1, k + 1)
        for b in range(j * k + j, j * k + k + 1)
    }
    assert set(series.c5_table(k)) == expected
    assert set(series.c6_table(k)) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_base_series_low_order_closed_form(k: int) -> None:
    """Through x**(2k), the base satisfies
    base = 1 - sum_{j=1}^{k} x**k (-x)**j / ((k-1)! j! (k+j))
             - x**(2k) / (2 (k!)**2).
    Recovered from the expansion at m = 1 (sum over j of the table)."""
    table = series.expand_core(k)
    closed = {0: F(1)}
    for j in range(1, k + 1):
        b = k + j
        closed[b] = closed.get(b, F(0)) - F(
            (-1) ** j, math.factorial(k - 1) * math.factorial(j) * (k + j)
        )
    closed[2 * k] = closed.get(2 * k, F(0)) - F(1, 2 * math.factorial(k) ** 2)
    for b in range(2 * k + 1):
        at_m1 = sum(
            (table.get(j, b) for j in range(table.j_cap + 1)), F(0)
        )
        assert at_m1 == closed.get(b, F(0)), b


# ---------------------------------------------------------------------------
# Derived constants and the centering sequence.
# ---------------------------------------------------------------------------


def test_constants_published_anchors_k2_r1() -> None:
    tab = series.constants(2, 1)
    assert 1.0 / tab.c2 == pytest.approx(math.sqrt(8.0 / math.pi), abs=1e-12)
    assert tab.c2 == pytest.approx(math.sqrt(2.0 * math.pi) / 4.0, abs=1e-12)
    assert tab.c3 == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_constants_diagonal_normalization(k: int) -> None:
    tab = series.constants(k, k)
    assert tab.c3 == pytest.approx(1.0, abs=1e-14)
    assert tab.c2 == pytest.approx(1.0, abs=1e-13)


def test_constants_centering_values() -> None:
    tab = series.constants(2, 1)
    assert tab.c1[1] == pytest.approx(
        -(2.0 / 3.0) * math.sqrt(2.0 / math.pi), abs=1e-12
    )
    assert tab.c1[2] == pytest.approx(-5.0 / 6.0, abs=1e-12)
    tab1 = series.constants(1, 1)
    assert tab1.c1[1] == pytest.approx(-1.0, abs=1e-13)


def test_constants_domain_errors() -> None:
    with pytest.raises(ValueError):
        series.constants(2, 0)
    with pytest.raises(ValueError):
        series.constants(2, 3)
    with pytest.raises(ValueError):
        series.constants(0, 1)
    with pytest.raises(ValueError):
        series.constants(series.MAX_K + 1, 1)
    with pytest.raises(ValueError):
        series.constants(True, True)
    with pytest.raises(ValueError):
        series.constants(2, True)
    with pytest.raises(ValueError):
        series.expand_core(True)


def test_constants_bool_k_leaves_cache_int() -> None:
    """``lru_cache`` keys ``True`` and ``1`` alike, so an accepted
    ``True`` would hand a bool ``k`` to every later ``constants(1, 1)``."""
    with pytest.raises(ValueError):
        series.constants(True, 1)
    assert type(series.constants(1, 1).k) is int


def test_constants_positivity() -> None:
    for k in range(1, 5):
        for r in range(1, k + 1):
            tab = series.constants(k, r)
            assert tab.c2 > 0.0
            assert tab.c3 > 0.0


def test_mu_k1() -> None:
    n = 1 << 12
    expected = 12.0 - 1.0 + math.log2(12.0)
    assert series.mu(1, 1, n) == pytest.approx(expected, abs=1e-12)


def test_mu_small_and_errors() -> None:
    # n = 4, k = r = 2: (2/2)*2 + C1(2,1)*sqrt(2) + C1(2,2) + lg 2
    tab = series.constants(2, 2)
    expected = 2.0 + tab.c1[1] * math.sqrt(2.0) + tab.c1[2] + 1.0
    assert series.mu(2, 2, 4) == pytest.approx(expected, abs=1e-12)
    assert series.mu(1, 1, 2) == 1.0 + series.constants(1, 1).c1[1]
    with pytest.raises(ValueError):
        series.mu(1, 1, 1)


def test_mu_k2_r1_shape() -> None:
    n = 1 << 16
    tab = series.constants(2, 1)
    expected = (
        2.0 * 16.0
        + tab.c1[1] * 4.0
        + tab.c1[2]
        + 4.0
    )
    assert series.mu(1, 2, n) == pytest.approx(expected, abs=1e-12)
