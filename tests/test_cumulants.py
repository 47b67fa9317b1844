"""Moment/cumulant conversions, partition products and the splitting recurrence."""
import random
from fractions import Fraction

import pytest

from cfreeconv.errors import DomainError
from cfreeconv.oracles import (
    Kappa,
    cfree_product_cumulant_series,
    kappa,
    product_phi_cumulants,
    product_psi_cumulants,
    word_cumulant,
)
from cfreeconv.partitions import NCPartition, group_nc_s_by_join
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import (
    TransformBundle,
    cfree_cumulants_from_moments,
    free_cumulants_from_moments,
)
from cfreeconv.verify import random_vanishing


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def test_low_order_formulas():
    m = TruncatedSeries.exact([0, 2, 5, 7], order=3)
    r = free_cumulants_from_moments(m)
    assert r.coeffs[1] == q(2)
    assert r.coeffs[2] == q(5 - 4)  # m2 - m1^2
    # m3 = r3 + 3 r1 r2 + r1^3
    assert m.coeffs[3] == r.coeffs[3] + 3 * r.coeffs[1] * r.coeffs[2] + r.coeffs[1] ** 3


def test_cfree_low_order_formulas():
    rng = random.Random(10)
    m = random_vanishing(rng, 3)
    M = random_vanishing(rng, 3)
    cr = cfree_cumulants_from_moments(M, m)
    assert cr.coeffs[1] == M.coeffs[1]
    assert cr.coeffs[2] == M.coeffs[2] - M.coeffs[1] ** 2
    r = free_cumulants_from_moments(m)
    # M3 = cr3 + 2 cr2 cr1 + cr2 r1 + cr1^3
    assert M.coeffs[3] == (
        cr.coeffs[3]
        + 2 * cr.coeffs[2] * cr.coeffs[1]
        + cr.coeffs[2] * r.coeffs[1]
        + cr.coeffs[1] ** 3
    )


def test_kappa_mixed_blocks_vanish():
    rng = random.Random(23)
    r_x, r_y = random_vanishing(rng, 4), random_vanishing(rng, 4)
    x = TransformBundle.from_cumulants(r_x, r_x)  # one-state laws: phi = psi
    y = TransformBundle.from_cumulants(r_y, r_y)
    p = NCPartition(4, [[1, 4], [2, 3]])
    letters = [x, y, y, x]
    assert kappa(p, letters) == x.R.coeffs[2] * y.R.coeffs[2]
    assert kappa(p, [x, y, x, y]) == q(0)
    same = NCPartition(2, [[1, 2]])
    assert kappa(same, [x, x]) == x.R.coeffs[2]


def test_Kappa_reads_exterior_in_phi():
    rng = random.Random(24)
    x = TransformBundle.from_cumulants(random_vanishing(rng, 5), random_vanishing(rng, 5))
    p = NCPartition(5, [[1, 5], [2, 4], [3]])
    val = Kappa(p, [x] * 5)
    assert val == x.cR.coeffs[2] * x.R.coeffs[2] * x.R.coeffs[1]


def test_product_phi_cumulants_low_order():
    rng = random.Random(26)
    x = TransformBundle.from_cumulants(random_vanishing(rng, 4), random_vanishing(rng, 4))
    y = TransformBundle.from_cumulants(random_vanishing(rng, 4), random_vanishing(rng, 4))
    assert product_phi_cumulants(x, y, 1) == x.cR.coeffs[1] * y.cR.coeffs[1]
    expected2 = (
        x.cR.coeffs[2] * y.R.coeffs[1] * y.cR.coeffs[1]
        + x.cR.coeffs[1] * x.R.coeffs[1] * y.cR.coeffs[2]
    )
    assert product_phi_cumulants(x, y, 2) == expected2


def test_fiber_decomposition_of_product_partition_weights():
    """Blockwise product weights of a product law split over join fibers."""
    rng = random.Random(27)
    for _ in range(8):
        x = TransformBundle.from_cumulants(
            random_vanishing(rng, 4), random_vanishing(rng, 4)
        )
        y = TransformBundle.from_cumulants(
            random_vanishing(rng, 4), random_vanishing(rng, 4)
        )
        for n in range(1, 5):
            r_xy = TruncatedSeries.exact(
                [0] + [product_psi_cumulants(x.R, y.R, k) for k in range(1, n + 1)],
                order=n,
            )
            cr_xy = TruncatedSeries.exact(
                [0] + [product_phi_cumulants(x, y, k) for k in range(1, n + 1)],
                order=n,
            )
            xy = TransformBundle.from_cumulants(cr_xy, r_xy)
            fibers = group_nc_s_by_join(2 * n)
            inter = [x if i % 2 == 0 else y for i in range(2 * n)]
            for base, sigmas in fibers.items():
                lhs_free = kappa(base, [xy] * n)
                rhs_free = sum(
                    (kappa(s, inter) for s in sigmas),
                    start=q(0),
                )
                assert lhs_free == rhs_free
                lhs_phi = Kappa(base, [xy] * n)
                rhs_phi = sum((Kappa(s, inter) for s in sigmas), start=q(0))
                assert lhs_phi == rhs_phi


def test_cfree_product_cumulant_series_matches_sums():
    rng = random.Random(28)
    for _ in range(10):
        x = TransformBundle.from_cumulants(
            random_vanishing(rng, 6), random_vanishing(rng, 6, c1_nonzero=True)
        )
        y = TransformBundle.from_cumulants(
            random_vanishing(rng, 6), random_vanishing(rng, 6, c1_nonzero=True)
        )
        series = cfree_product_cumulant_series(x, y)
        assert series.coeffs[0] == x.cR.coeffs[1] * y.cR.coeffs[1]
        for n in range(1, 6):
            assert series.coeffs[n - 1] == product_phi_cumulants(x, y, n)


def test_cfree_product_formula_needs_invertible_first_cumulants():
    rng = random.Random(29)
    x = TransformBundle.from_cumulants(
        random_vanishing(rng, 3),
        TruncatedSeries.exact([0, 0, 1, 1], order=3),
    )
    with pytest.raises(DomainError):
        cfree_product_cumulant_series(x, x)


def _single_variable_oracle(m, M):
    def oracle(word, state):
        count = sum(1 for letter in word if letter == "x")
        assert count + sum(1 for letter in word if letter == "u") == len(word)
        if count == 0:
            return q(1)
        series = m if state == "psi" else M
        return series.coefficient(count)

    return oracle


def test_word_cumulant_reproduces_series_cumulants():
    rng = random.Random(30)
    m = random_vanishing(rng, 6)
    M = random_vanishing(rng, 6)
    oracle = _single_variable_oracle(m, M)
    r = free_cumulants_from_moments(m)
    cr = cfree_cumulants_from_moments(M, m)
    for n in range(1, 7):
        assert word_cumulant(oracle, "x" * n, "psi") == r.coeffs[n]
        assert word_cumulant(oracle, "x" * n, "phi") == cr.coeffs[n]


def test_word_cumulant_vanishes_on_unit_insertions():
    rng = random.Random(31)
    m = random_vanishing(rng, 6)
    M = random_vanishing(rng, 6)
    oracle = _single_variable_oracle(m, M)
    assert word_cumulant(oracle, ("x", "u"), "psi") == q(0)
    assert word_cumulant(oracle, ("x", "u"), "phi") == q(0)
    for word in ("xu", "ux", "xux", "uxx", "xxu", "uxu", "xuxx"):
        assert word_cumulant(oracle, tuple(word), "psi") == q(0)
        assert word_cumulant(oracle, tuple(word), "phi") == q(0)
    # order-1 unit cumulants are the unit moments, not zero
    assert word_cumulant(oracle, ("u",), "psi") == q(1)
