"""Transform layer: t/ct, moment recurrences, linked-block sums, sigma."""
import random
from fractions import Fraction

import pytest

from cfreeconv import cumulants
from cfreeconv.cumulants import (
    TwoStateData,
    cfree_cumulants_from_moments,
    free_cumulants_from_moments,
)
from cfreeconv.errors import ArgumentError, DomainError
from cfreeconv.oracles import (
    phi_moments_via_linked_blocks,
    product_phi_cumulants,
    product_psi_cumulants,
    psi_moments_via_linked_blocks,
)
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import (
    TransformBundle,
    b_series,
    ct_transform,
    eta,
    moments_from_t,
    phi_moments_from_ct,
    sigma_series,
    t_transform,
)
from cfreeconv.verify import random_scalar, random_vanishing


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def random_headed(rng, order):
    """Series with nonzero constant term (a transform-style series)."""
    coeffs = [random_scalar(rng, nonzero=True)] + [
        random_scalar(rng) for _ in range(order)
    ]
    return TruncatedSeries.exact(coeffs)


def point_mass_moments(lam, order):
    return TruncatedSeries.exact([q(0)] + [lam ** n for n in range(1, order + 1)])


def test_point_mass_is_a_constant_in_every_transform():
    lam = ComplexRational(Fraction(3, 5), Fraction(4, 5))  # unit modulus
    m = point_mass_moments(lam, 7)
    t = t_transform(m)
    assert t == TruncatedSeries.exact([lam] + [q(0)] * 6)
    ct = ct_transform(m, m)
    assert ct == t
    assert eta(m) == TruncatedSeries.exact([q(0), lam] + [q(0)] * 6)
    assert b_series(m) == t
    assert sigma_series(m, m) == t


def test_t_low_order_coefficients():
    rng = random.Random(50)
    m = random_vanishing(rng, 5, c1_nonzero=True)
    t = t_transform(m)
    r = free_cumulants_from_moments(m)
    assert t.coeffs[0] == m.coeffs[1]
    assert t.coeffs[1] == r.coeffs[2] / r.coeffs[1]


def test_moment_recurrence_witnesses():
    rng = random.Random(51)
    t = random_headed(rng, 3)
    t0, t1, t2 = t.coeffs[0], t.coeffs[1], t.coeffs[2]
    m = moments_from_t(t)
    assert m.coeffs[1] == t0
    assert m.coeffs[2] == t0 * t1 + t0 ** 2
    assert m.coeffs[3] == t0 ** 3 + 3 * t0 ** 2 * t1 + t0 * t1 ** 2 + t0 ** 2 * t2
    ct = random_headed(rng, 3)
    M = phi_moments_from_ct(ct, m)
    assert M.coeffs[1] == ct.coeffs[0]
    assert M.coeffs[2] == t0 * ct.coeffs[1] + ct.coeffs[0] ** 2


def test_transform_roundtrips_exact():
    rng = random.Random(52)
    for _ in range(50):
        m = random_vanishing(rng, 7, c1_nonzero=True)
        assert moments_from_t(t_transform(m)) == m
        t = random_headed(rng, 6)
        assert t_transform(moments_from_t(t)) == t
        M = random_vanishing(rng, 7)
        ct = ct_transform(M, m)
        assert phi_moments_from_ct(ct, m) == M
        ct2 = random_headed(rng, 6)
        assert ct_transform(phi_moments_from_ct(ct2, moments_from_t(t)), moments_from_t(t)) == ct2


def test_three_way_linked_block_oracle():
    rng = random.Random(53)
    for _ in range(5):
        t = random_headed(rng, 5)
        ct = random_headed(rng, 5)
        m_rec = moments_from_t(t)
        M_rec = phi_moments_from_ct(ct, m_rec)
        assert psi_moments_via_linked_blocks(t) == m_rec
        assert phi_moments_via_linked_blocks(ct, t) == M_rec
        assert t_transform(m_rec) == t
        assert ct_transform(M_rec, m_rec) == ct
        assert psi_moments_via_linked_blocks(t, n_max=4) == m_rec.truncate(4)
        assert phi_moments_via_linked_blocks(ct, t, n_max=4) == M_rec.truncate(4)


def test_moment_count_requests():
    rng = random.Random(59)
    t = random_headed(rng, 5)
    short = moments_from_t(t, n=3)
    assert short.order == 3 and short == moments_from_t(t).truncate(3)
    ct = random_headed(rng, 5)
    m = moments_from_t(t)
    shorter = phi_moments_from_ct(ct, m, n=2)
    assert shorter == phi_moments_from_ct(ct, m).truncate(2)
    with pytest.raises(ArgumentError):
        moments_from_t(t, n=7)
    with pytest.raises(ArgumentError):
        phi_moments_from_ct(ct, m, n=0)
    headless = TruncatedSeries.exact([0, 2, 3, 5, 7, 1])  # t_0 = 0 forces every moment to 0
    assert moments_from_t(headless) == TruncatedSeries.zero(6, "exact")
    assert moments_from_t(headless, n=3) == TruncatedSeries.zero(3, "exact")


def test_multiplicativity_matches_partition_route():
    rng = random.Random(54)
    for _ in range(5):
        x = TwoStateData.from_cumulants(
            random_vanishing(rng, 5), random_vanishing(rng, 5, c1_nonzero=True)
        )
        y = TwoStateData.from_cumulants(
            random_vanishing(rng, 5), random_vanishing(rng, 5, c1_nonzero=True)
        )
        r_xy = TruncatedSeries.exact(
            [q(0)]
            + [
                product_psi_cumulants(x.psi.free_cumulants, y.psi.free_cumulants, n)
                for n in range(1, 6)
            ]
        )
        cr_xy = TruncatedSeries.exact(
            [q(0)] + [product_phi_cumulants(x, y, n) for n in range(1, 6)]
        )
        xy = TwoStateData.from_cumulants(cr_xy, r_xy)
        bx, by = TransformBundle(x), TransformBundle(y)
        bxy = TransformBundle(xy)
        assert bxy.T == bx.T * by.T
        assert bxy.cT == bx.cT * by.cT
        assert bxy.Sigma == bx.Sigma * by.Sigma
        prod = bx.multiply(by)
        assert prod.data.psi.moments == xy.psi.moments
        assert prod.data.phi_moments == xy.phi_moments


def test_sigma_first_value_is_first_phi_moment():
    rng = random.Random(55)
    for _ in range(30):
        m = random_vanishing(rng, 8, c1_nonzero=True)
        M = random_vanishing(rng, 8)
        sigma = sigma_series(M, m)
        assert sigma.order == 7
        assert sigma.coeffs[0] == M.coeffs[1]


def test_sigma_runs_in_approx_mode():
    rng = random.Random(56)
    m = random_vanishing(rng, 6, c1_nonzero=True).to_approx()
    M = random_vanishing(rng, 6).to_approx()
    sigma = sigma_series(M, m)
    assert sigma.mode == "approx"
    assert abs(sigma.coeffs[0] - M.coeffs[1]) < 1e-12


def test_cumulant_transform_wrappers():
    rng = random.Random(58)
    m = random_vanishing(rng, 6, c1_nonzero=True)
    M = random_vanishing(rng, 6)
    r = free_cumulants_from_moments(m)
    cr = cfree_cumulants_from_moments(M, m)
    assert r.coeffs[2] == m.coeffs[2] - m.coeffs[1] ** 2
    assert cr.coeffs[1] == M.coeffs[1]
    assert cr.coeffs[2] == M.coeffs[2] - M.coeffs[1] ** 2
    with pytest.raises(ArgumentError):
        free_cumulants_from_moments(random_headed(rng, 3))


def test_eta_low_order():
    rng = random.Random(57)
    M = random_vanishing(rng, 4)
    e = eta(M)
    assert e.coeffs[1] == M.coeffs[1]
    assert e.coeffs[2] == M.coeffs[2] - M.coeffs[1] ** 2
    assert b_series(M).coeffs[0] == M.coeffs[1]


def test_domain_errors():
    flat = TruncatedSeries.exact([0, 0, 1, 2])
    with pytest.raises(DomainError):
        t_transform(flat)
    headed = TruncatedSeries.exact([1, 2, 3])
    with pytest.raises(ArgumentError):
        t_transform(headed)
    with pytest.raises(ArgumentError):
        eta(headed)
    t = TruncatedSeries.exact([1, 2, 3])
    with pytest.raises(ArgumentError):
        psi_moments_via_linked_blocks(t, n_max=5)
    ct = TruncatedSeries.exact([1, 2])
    with pytest.raises(ArgumentError):
        phi_moments_via_linked_blocks(ct, t)


def test_bundle_fields_match_free_functions(monkeypatch):
    rng = random.Random(58)
    m = random_vanishing(rng, 6, c1_nonzero=True)
    M = random_vanishing(rng, 6)
    bundle = TransformBundle.from_moments(M, m)
    with monkeypatch.context() as patch:  # a product never reads R or cR
        for name in ("free_cumulants_from_moments", "cfree_cumulants_from_moments"):
            patch.setattr(cumulants, name, None)
        bundle.multiply(bundle)
    assert bundle.T == t_transform(m)
    assert bundle.cT == ct_transform(M, m)
    assert bundle.eta == eta(m)
    assert bundle.B == b_series(M)
    assert bundle.Sigma == sigma_series(M, m)
    assert bundle.m == m and bundle.M == M
    assert bundle.R == bundle.data.psi.free_cumulants
    assert bundle.cR == bundle.data.cfree_cumulants
    assert bundle.order == 6 and bundle.mode == "exact"
