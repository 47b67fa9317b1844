"""Transform layer: cumulants, t/ct, moment recurrences, linked-block sums, sigma."""
import importlib.util
import random
from fractions import Fraction

import pytest

import cfreeconv
from cfreeconv import transforms
from cfreeconv.errors import ArgumentError, DomainError, UnsupportedDomainError
from cfreeconv.measures import CircleMeasure
from cfreeconv.oracles import (
    phi_moments_via_linked_blocks,
    psi_moments_via_linked_blocks,
)
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import (
    TransformBundle,
    b_series,
    cfree_cumulants_from_moments,
    ct_transform,
    eta,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    moments_from_t,
    phi_moments_from_cfree_cumulants,
    phi_moments_from_ct,
    sigma_series,
    t_transform,
)
from cfreeconv.verify import random_headed, random_vanishing


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


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


def test_moment_count_requests():
    headless = TruncatedSeries.exact([0, 2, 3, 5, 7, 1])  # t_0 = 0 forces every moment to 0
    assert moments_from_t(headless) == TruncatedSeries.zero(6, "exact")
    assert moments_from_t(headless.to_approx()) == TruncatedSeries.zero(6, "approx")


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
    # A law built from cumulants with R_1 = 0 keeps them and has no T, cT or Sigma.
    cR, R = TruncatedSeries.exact([0, 1, 2, 3]), TruncatedSeries.exact([0, 0, 1, 1])
    law = TransformBundle.from_cumulants(cR, R)
    assert law.R is R and law.cR is cR
    assert law.m == moments_from_free_cumulants(R)
    assert law.M == phi_moments_from_cfree_cumulants(cR, law.m)
    for field in ("T", "cT", "Sigma"):
        with pytest.raises(UnsupportedDomainError):
            getattr(law, field)


def test_phi_moments_from_cfree_cumulants_needs_vanishing_psi_moments():
    cr, headed = TruncatedSeries.exact([0, 1, 2, 3]), TruncatedSeries.exact([5, 1, 1, 1])
    with pytest.raises(ArgumentError, match="psi-moment series must have a vanishing constant term"):
        phi_moments_from_cfree_cumulants(cr, headed)
    with pytest.raises(ArgumentError, match="psi-moment series must have a vanishing constant term"):
        phi_moments_from_cfree_cumulants(cr.to_approx(), headed.to_approx())


def test_bundle_fields_match_free_functions(monkeypatch):
    rng = random.Random(58)
    m = random_vanishing(rng, 6, c1_nonzero=True)
    M = random_vanishing(rng, 6)
    bundle = TransformBundle.from_moments(M, m)
    with monkeypatch.context() as patch:  # a product never reads R or cR
        patch.setattr(TransformBundle, "_w_inverse", None)
        bundle.multiply(bundle)
        bundle.power(3)
    assert bundle.T == t_transform(m)
    assert bundle.cT == ct_transform(M, m)
    assert bundle.eta == eta(m)
    assert bundle.B == b_series(M)
    assert bundle.Sigma == sigma_series(M, m)
    assert bundle.m == m and bundle.M == M
    assert bundle.R == free_cumulants_from_moments(m)
    assert bundle.cR == cfree_cumulants_from_moments(M, m)
    assert bundle.order == 6 and bundle.mode == "exact"


def test_bundle_power_is_repeated_multiply():
    rng = random.Random(61)
    bundle = TransformBundle(random_vanishing(rng, 5), random_vanishing(rng, 5, c1_nonzero=True))
    product = bundle
    for k in range(1, 5):
        power = bundle.power(k)
        assert power.m == product.m and power.M == product.M
        product = product.multiply(bundle)
    with pytest.raises(ArgumentError):
        bundle.power(0)


def test_bundle_reverts_twice_for_t_ct_and_sigma(monkeypatch):
    rng = random.Random(60)
    bundle = TransformBundle.from_moments(
        random_vanishing(rng, 6), random_vanishing(rng, 6, c1_nonzero=True)
    )
    true_invert = TruncatedSeries.invert_composition
    reverted = []

    def counted(series):
        reverted.append(series)
        return true_invert(series)

    monkeypatch.setattr(TruncatedSeries, "invert_composition", counted)
    bundle.T, bundle.cT, bundle.Sigma
    assert reverted == [bundle.m, bundle.eta]


@pytest.mark.parametrize("order", [1, 2, 8, 15, 16, 17, 20, 32])
def test_t_equals_its_definition(order):
    # Exact T is the closed form u/((1 + u) m^-1(u)); it must equal b(m) o m^-1
    # at every coefficient, at short orders and long ones.  Approx T is that
    # composition itself.
    rng = random.Random(62 + order)
    quarter = [Fraction(k, 4) for k in range(4)]
    laws = []
    while len(laws) < 2:
        weights = [Fraction(rng.randint(1, 9)) for _ in quarter]
        law = CircleMeasure.atomic([(t, w / sum(weights)) for t, w in zip(quarter, weights)])
        if law.moment_series(1).coeffs[1]:
            laws.append(law.moment_series(order, "exact"))
    for m in laws + [random_vanishing(rng, order, c1_nonzero=True)]:
        assert TransformBundle(m, m).T == b_series(m).compose(m.invert_composition())
        m = m.to_approx()
        t = TransformBundle(m, m).T
        want = b_series(m).compose(m.invert_composition())
        assert t.mode == "approx" and t.coeffs == want.coeffs


def quarter_turn_moments(rng, order):
    quarter = [Fraction(k, 4) for k in range(4)]
    weights = [Fraction(rng.randint(1, 9)) for _ in quarter]
    law = CircleMeasure.atomic([(t, w / sum(weights)) for t, w in zip(quarter, weights)])
    return law.moment_series(order, "exact")


def two_reversion_cumulants(M, m):
    """R and cR as two separate closed forms, each over its own reversion of z(1 + m)."""

    def one_plus(s):
        return TruncatedSeries.constant(1, s.order, s.mode) + s

    def w_inverse():
        return (TruncatedSeries.identity(m.order, m.mode) * one_plus(m)).invert_composition()

    return m.compose(w_inverse()), (M * one_plus(m) * one_plus(M).reciprocal()).compose(w_inverse())


def float_bits(series):
    return [(c.real.hex(), c.imag.hex()) for c in series.coeffs]


def test_bundle_reverts_once_for_r_and_cr(monkeypatch):
    rng = random.Random(63)
    m = random_vanishing(rng, 8, c1_nonzero=True)
    bundle = TransformBundle.from_moments(random_vanishing(rng, 8), m)
    true_invert = TruncatedSeries.invert_composition
    reverted = []

    def counted(series):
        reverted.append(series)
        return true_invert(series)

    monkeypatch.setattr(TruncatedSeries, "invert_composition", counted)
    bundle.R, bundle.cR
    one = TruncatedSeries.constant(1, 8, "exact")
    assert reverted == [TruncatedSeries.identity(8, "exact") * (one + m)]


@pytest.mark.parametrize("order", [1, 2, 8, 16])
def test_r_and_cr_equal_the_two_reversion_forms(order):
    # Exact R and cR are == to the forms that revert z(1 + m) once each, and
    # approx ones are bit-identical to them; the last psi series has m_1 = 0.
    rng = random.Random(70 + order)
    flat = TruncatedSeries.exact([0, 0] + list(random_vanishing(rng, order).coeffs[2:]))
    pairs = [
        (quarter_turn_moments(rng, order), quarter_turn_moments(rng, order)),
        (random_vanishing(rng, order), random_vanishing(rng, order, c1_nonzero=True)),
        (quarter_turn_moments(rng, order), flat),
    ]
    for M, m in pairs:
        bundle = TransformBundle.from_moments(M, m)
        assert (bundle.R, bundle.cR) == two_reversion_cumulants(M, m)
        assert free_cumulants_from_moments(m) == bundle.R
        assert cfree_cumulants_from_moments(M, m) == bundle.cR
        M, m = M.to_approx(), m.to_approx()
        bundle = TransformBundle.from_moments(M, m)
        R, cR = two_reversion_cumulants(M, m)
        assert bundle.R.mode == bundle.cR.mode == "approx"
        assert float_bits(bundle.R) == float_bits(R)
        assert float_bits(bundle.cR) == float_bits(cR)


def test_package_names_resolve_and_cumulants_live_in_transforms():
    for name in cfreeconv.__all__:
        assert hasattr(cfreeconv, name), name
    for name in (
        "free_cumulants_from_moments",
        "cfree_cumulants_from_moments",
        "moments_from_free_cumulants",
        "phi_moments_from_cfree_cumulants",
    ):
        assert name in cfreeconv.__all__
        assert getattr(cfreeconv, name) is getattr(transforms, name)
    assert importlib.util.find_spec("cfreeconv.cumulants") is None
