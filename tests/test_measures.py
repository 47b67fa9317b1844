"""Circle laws: moments, convolutions, generators, centering, experiments."""
import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from cfreeconv import measures
from cfreeconv.errors import ArgumentError, DomainError, NumericalError, UnsupportedDomainError
from cfreeconv.measures import (
    CircleMeasure,
    IdGenerator,
    MeasurePair,
    _center_one,
    boolean_convolve,
    cfree_multiplicative_convolve,
    free_multiplicative_convolve,
    herglotz_exp,
    idiv_boolean_measure,
    idiv_free_measure,
    limit_experiment,
    semigroup_pair,
    series_exp,
    series_log,
    series_pow,
    toeplitz_psd_check,
)
from cfreeconv.oracles import product_psi_cumulants
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import TransformBundle, free_cumulants_from_moments, moments_from_t, sigma_series, t_transform
from cfreeconv.verify import partition_product


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def random_atomic(rng, turns_pool, anchored=False):
    """Random atomic law; ``anchored`` keeps at least 3/4 of the mass at 1."""
    turns = rng.sample(turns_pool, rng.randint(1, min(3, len(turns_pool))))
    raw = [Fraction(rng.randint(1, 9)) for _ in turns]
    if anchored:
        turns = [Fraction(0)] + [t for t in turns if t]
        raw = [3 * sum(raw)] + raw[: len(turns) - 1]
    total = sum(raw)
    return CircleMeasure.atomic([(t, w / total) for t, w in zip(turns, raw)])


def random_invertible_atomic(rng, turns_pool):
    while True:
        m = random_atomic(rng, turns_pool)
        if m.moment_series(1).coeffs[1]:
            return m


QUARTER = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
TWELFTH = [Fraction(k, 12) for k in range(12)]


def gap(a, b, order):
    xs = a.moment_series(order, "approx").coeffs
    ys = b.moment_series(order, "approx").coeffs
    return max(abs(x - y) for x, y in zip(xs, ys))


def pair_gap(pa, pb, order):
    return max(gap(pa.mu, pb.mu, order), gap(pa.nu, pb.nu, order))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_moment_formulas():
    assert CircleMeasure.haar().moment_series(5).coeffs[1:] == (q(0),) * 5
    alpha = 0.3 + 0.4j
    kernel_moments = CircleMeasure.poisson(alpha).moment_series(4).coeffs[1:]
    assert all(abs(v - alpha ** n) < 1e-15 for n, v in enumerate(kernel_moments, 1))
    lam = CircleMeasure.point_mass(Fraction(1, 4))
    assert lam.moment_series(4).coeffs[1:] == (q(0, 1), q(-1), q(0, -1), q(1))
    mixed = CircleMeasure.atomic([(0, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2))])
    vals = mixed.moment_series(3).coeffs[1:]
    zeta = cmath.exp(1j * math.tau / 3)
    assert all(abs(v - (0.5 + 0.5 * zeta ** n)) < 1e-12 for n, v in enumerate(vals, 1))
    assert all(abs(v) <= 1 + 1e-12 for v in vals)


def test_moment_guards():
    with pytest.raises(ArgumentError):
        CircleMeasure.moment_seq([0.5, 0.25]).moment_series(3).coeffs[1:]
    with pytest.raises(DomainError):
        CircleMeasure.point_mass(Fraction(1, 3)).moment_series(2, "exact")
    with pytest.raises(ArgumentError):
        CircleMeasure.atomic([(0, Fraction(1, 2))])
    with pytest.raises(ArgumentError):
        CircleMeasure.moment_seq([2.0])
    with pytest.raises(ArgumentError):
        CircleMeasure.poisson(1.2)
    nan = float("nan")
    with pytest.raises(ArgumentError):
        CircleMeasure.poisson(complex(nan, 0))
    with pytest.raises(ArgumentError):
        CircleMeasure.moment_seq([0.5, complex(nan, 0)])
    with pytest.raises(ArgumentError):
        IdGenerator(complex(nan, 0))


@pytest.mark.parametrize("values", [[complex("nan"), 0.5], [0.5, complex("nan")], [0.5, complex(0, float("nan"))]])
def test_computed_law_refuses_a_moment_that_is_not_a_number(values):
    # max() skips a NaN that is not first, so every value must be tested.
    with pytest.raises(NumericalError, match="not a number"):
        measures._computed_law(TruncatedSeries.approx([0, *values]))


def test_measure_json_round_trips():
    measures = [
        CircleMeasure.atomic([(Fraction(1, 3), Fraction(2, 5)), (0, Fraction(3, 5))]),
        CircleMeasure.haar(),
        CircleMeasure.poisson(0.2 - 0.1j),
        CircleMeasure.moment_seq([0.5 + 0.1j, -0.25]),
        CircleMeasure.moment_seq([ComplexRational(Fraction(1, 2), Fraction(1, 2)), q(0, -1)]),
    ]
    for m in measures:
        again = CircleMeasure.from_json(m.to_json())
        assert again.kind == m.kind
        if m.kind != "haar":
            assert gap(m, again, 2) < 1e-15
    with pytest.raises(ArgumentError):
        CircleMeasure.from_json({"type": "gaussian"})


# Quarter-turn laws, whose convolutions run exactly.
X = CircleMeasure.atomic([(0, Fraction(5, 12)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(1, 4))])
Y = CircleMeasure.atomic([(0, Fraction(1, 4)), (Fraction(1, 4), Fraction(7, 12)), (Fraction(3, 4), Fraction(1, 6))])


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_computed_laws_keep_the_series_that_produced_them(mode):
    # Both modes take subordination.  Exact series are those of the T route;
    # in doubles the two routes differ in the last bits.
    order = 8
    mx, my = X.moment_series(order, mode), Y.moment_series(order, mode)
    if mode == "exact":
        product = TransformBundle.from_moments(mx, mx).multiply(TransformBundle.from_moments(my, my))
        M, m, free = product.M, product.m, moments_from_t(t_transform(mx) * t_transform(my))
    else:
        M, m = measures._subordinated_product(mx, mx, my, my)
        free = m
    pair = cfree_multiplicative_convolve(MeasurePair(X, X), MeasurePair(Y, Y), order, mode)
    produced = [(pair.mu, M), (pair.nu, m), (free_multiplicative_convolve(X, Y, order, mode), free)]
    for law, series in produced:
        assert law.supports_exact() == (mode == "exact")
        for n in range(1, order + 1):
            assert law.moment_series(n) == series.truncate(n)
            assert law.moment_series(n, "approx") == series.truncate(n).to_approx()
        with pytest.raises(ArgumentError, match="shorter than the order"):
            law.moment_series(order + 1)
        assert CircleMeasure.from_json(json.loads(json.dumps(law.to_json()))) == law


def approx_gap(want, got, order):
    xs, ys = (law.moment_series(order, "approx").coeffs for law in (want, got))
    return max(abs(x - y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("order", [24, 28, 32, 64])
def test_approx_products_match_the_exact_product(order):
    # On the T route through m^-1 these erred by 3.1e-5 and 5.4e-3 at orders
    # 24 and 28 and raised NumericalError at 32 and 64.
    exact = cfree_multiplicative_convolve(MeasurePair(X, X), MeasurePair(Y, Y), order, "exact")
    approx = cfree_multiplicative_convolve(MeasurePair(X, X), MeasurePair(Y, Y), order, "approx")
    assert approx_gap(exact.mu, approx.mu, order) <= 1e-13
    assert approx_gap(exact.nu, approx.nu, order) <= 1e-13
    free = free_multiplicative_convolve(X, Y, order, "approx")
    assert approx_gap(free_multiplicative_convolve(X, Y, order, "exact"), free, order) <= 1e-13


def test_approx_product_of_pairs_that_are_not_self_paired():
    order = 32
    pairs = MeasurePair(X, Y), MeasurePair(Y, X)
    exact, approx = (cfree_multiplicative_convolve(*pairs, order, mode) for mode in ("exact", "approx"))
    assert approx_gap(exact.mu, approx.mu, order) <= 1e-13
    assert approx_gap(exact.nu, approx.nu, order) <= 1e-13


@pytest.mark.parametrize(
    "product",
    [
        lambda order: cfree_multiplicative_convolve(MeasurePair(X, Y), MeasurePair(Y, X), order, "approx"),
        lambda order: free_multiplicative_convolve(X, Y, order, "approx"),
        lambda order: cfree_multiplicative_convolve(MeasurePair(X, Y), MeasurePair(Y, X), order, "exact"),
        lambda order: free_multiplicative_convolve(X, Y, order, "exact"),
    ],
    ids=["cfree", "free", "exact-cfree", "exact-free"],
)
def test_approx_products_revert_no_series(monkeypatch, product):
    # Newton's iteration makes ceil(log2 N) steps of at most 4 compositions,
    # and the outputs take at most 3 more.
    order = 64
    calls = {"compose": 0, "invert_composition": 0}
    for name in calls:
        kernel = getattr(TruncatedSeries, name)

        def counted(self, *args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    product(order)
    assert calls["invert_composition"] == 0
    assert 0 < calls["compose"] <= 4 * math.ceil(math.log2(order)) + 4


@pytest.mark.parametrize(
    "alpha, written",
    [
        (["1/2", "1/3"], ["1/2", "1/3"]),
        (["-1/4", 0], ["-1/4", "0"]),
        ([0.25, "0.5"], ["1/4", "1/2"]),
        ([0.2, -0.1], [0.2, -0.1]),
    ],
    ids=["exact", "exact-int-part", "exact-float-part", "approx"],
)
def test_a_poisson_law_reads_and_writes_alpha_in_its_mode(alpha, written):
    # A fraction string in either part makes alpha exact, as in a moments entry.
    law = CircleMeasure.from_json({"type": "poisson", "alpha": alpha})
    exact = any(isinstance(part, str) for part in alpha)
    assert law.supports_exact() == exact
    assert law.to_json() == {"type": "poisson", "alpha": written}
    again = CircleMeasure.from_json(json.loads(json.dumps(law.to_json())))
    assert again == law
    assert again.moment_series(6) == law.moment_series(6)
    assert again.moment_series(6).mode == ("exact" if exact else "approx")


def test_an_exact_poisson_parameter_is_bounded_exactly():
    # |alpha| < 1 is decided on the fractions, so an alpha beyond a double is
    # refused as outside the disk rather than overflowing.
    for alpha in (["1e400", "0"], ["3/5", "4/5"]):
        with pytest.raises(ArgumentError, match=r"needs \|alpha\| < 1"):
            CircleMeasure.from_json({"type": "poisson", "alpha": alpha})
    assert CircleMeasure.poisson(q(Fraction(3, 5), Fraction(799, 1000))).supports_exact()


def test_a_moment_list_with_a_float_entry_is_an_approx_law():
    law = CircleMeasure.moment_seq([q(Fraction(1, 2), Fraction(1, 4)), 0.25 + 0j])
    assert not law.supports_exact()
    assert law.to_json() == {"type": "moments", "values": [[0.5, 0.25], [0.25, 0.0]]}
    assert CircleMeasure.moment_seq([q(Fraction(1, 2), Fraction(1, 4))]).to_json() == {
        "type": "moments",
        "values": [["1/2", "1/4"]],
    }


def test_exact_convolutions_build_no_scalars(monkeypatch):
    built = []
    init = ComplexRational.__init__

    def counted(self, *args, **kwargs):
        built[-1][1] += 1
        init(self, *args, **kwargs)

    def count(what, op):
        built.append([what, 0])
        return op()

    monkeypatch.setattr(ComplexRational, "__init__", counted)
    order = 16
    product = count("cfree", lambda: cfree_multiplicative_convolve(MeasurePair(X, X), MeasurePair(Y, Y), order))
    count("cfree of its output", lambda: cfree_multiplicative_convolve(product, product, order))
    count("free", lambda: free_multiplicative_convolve(X, Y, order))
    count("boolean", lambda: boolean_convolve(X, Y, order))
    bundle = TransformBundle.from_moments(X.moment_series(order), Y.moment_series(order))
    count("bundle", lambda: (bundle.T, bundle.cT, bundle.Sigma, bundle.R, bundle.cR))
    monkeypatch.undo()
    assert product.mu.supports_exact() and product.nu.supports_exact()
    assert built == [[what, 0] for what, _ in built]


# ---------------------------------------------------------------------------
# Boolean and free convolution
# ---------------------------------------------------------------------------


def test_boolean_point_masses_and_units():
    a = CircleMeasure.point_mass(Fraction(1, 4))
    b = CircleMeasure.point_mass(Fraction(1, 2))
    out = boolean_convolve(a, b, 6)
    want = CircleMeasure.point_mass(Fraction(3, 4)).moment_series(6)
    assert out.moment_series(6) == want
    assert out.moment_series(6).mode == "exact"
    mu = CircleMeasure.atomic([(0, Fraction(2, 3)), (Fraction(1, 4), Fraction(1, 3))])
    assert boolean_convolve(mu, CircleMeasure.point_mass(0), 6).moment_series(6) == mu.moment_series(6)
    absorbed = boolean_convolve(CircleMeasure.haar(), mu, 5)
    assert all(not c for c in absorbed.moment_series(5).coeffs)


def test_free_point_masses_and_units():
    a = CircleMeasure.point_mass(Fraction(1, 4))
    b = CircleMeasure.point_mass(Fraction(1, 2))
    want = CircleMeasure.point_mass(Fraction(3, 4)).moment_series(6)
    assert free_multiplicative_convolve(a, b, 6).moment_series(6) == want
    nu = CircleMeasure.atomic([(0, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 4))])
    assert free_multiplicative_convolve(nu, CircleMeasure.point_mass(0), 6).moment_series(6) == nu.moment_series(6)
    assert free_multiplicative_convolve(CircleMeasure.haar(), nu, 4).moment_series(4) == TruncatedSeries.zero(4, "exact")


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_a_free_product_with_the_uniform_law_is_uniform(mode):
    # The uniform law absorbs every law: Haar x nu has only zero moments.
    zero = TruncatedSeries.zero(12, mode)
    for nu in (X, Y):
        assert free_multiplicative_convolve(CircleMeasure.haar(), nu, 12, mode).moment_series(12, mode) == zero
        assert free_multiplicative_convolve(nu, CircleMeasure.haar(), 12, mode).moment_series(12, mode) == zero


def test_free_second_moment_against_partition_sums():
    rng = random.Random(71)
    for _ in range(10):
        nu = random_invertible_atomic(rng, QUARTER)
        m = nu.moment_series(3)
        r = free_cumulants_from_moments(m)
        out = free_multiplicative_convolve(nu, nu, 3).moment_series(3)
        k1 = product_psi_cumulants(r, r, 1)
        k2 = product_psi_cumulants(r, r, 2)
        assert out.coeffs[1] == k1
        assert out.coeffs[2] == k2 + k1 ** 2


def test_convolutions_commute_and_associate():
    rng = random.Random(72)
    for _ in range(5):
        a = random_invertible_atomic(rng, TWELFTH)
        b = random_invertible_atomic(rng, TWELFTH)
        c = random_invertible_atomic(rng, TWELFTH)
        for conv in (boolean_convolve, free_multiplicative_convolve):
            ab = conv(a, b, 6)
            ba = conv(b, a, 6)
            assert gap(ab, ba, 6) < 1e-9
            left = conv(conv(a, b, 6), c, 6)
            right = conv(a, conv(b, c, 6), 6)
            assert gap(left, right, 6) < 1e-9
    # and exactly on quarter-turn atoms
    rng = random.Random(73)
    a = random_invertible_atomic(rng, QUARTER)
    b = random_invertible_atomic(rng, QUARTER)
    c = random_invertible_atomic(rng, QUARTER)
    for conv in (boolean_convolve, free_multiplicative_convolve):
        assert conv(conv(a, b, 5), c, 5).moment_series(5) == conv(a, conv(b, c, 5), 5).moment_series(5)
        assert conv(a, b, 5).moment_series(5) == conv(b, a, 5).moment_series(5)


# ---------------------------------------------------------------------------
# Pair convolution
# ---------------------------------------------------------------------------


def test_pair_first_moment_multiplies():
    pair = MeasurePair(
        CircleMeasure.point_mass(Fraction(1, 4)),
        CircleMeasure.point_mass(Fraction(1, 2)),
    )
    rng = random.Random(74)
    other = MeasurePair(
        random_atomic(rng, QUARTER), random_invertible_atomic(rng, QUARTER)
    )
    out = cfree_multiplicative_convolve(pair, other, 4)
    lam = pair.mu.moment_series(1).coeffs[1]
    assert out.mu.moment_series(1).coeffs[1] == lam * other.mu.moment_series(1).coeffs[1]


def pair_product_by_partition_sums(p1, p2, order):
    """The product's (phi, psi) moment series by the partition-sum route."""
    (M1, m1), (M2, m2) = ((p.mu.moment_series(order), p.nu.moment_series(order)) for p in (p1, p2))
    return partition_product(TransformBundle(M1, m1), TransformBundle(M2, m2))


def pair_product_moments(p1, p2, order):
    out = cfree_multiplicative_convolve(p1, p2, order)
    return out.mu.moment_series(order), out.nu.moment_series(order)


def test_pair_uniform_escape_hatch():
    # Over two uniform psi-laws the phi-moments are the powers of
    # c = m_1 m_1' and the psi-law stays uniform.  A uniform psi-law meeting
    # another law, and a psi-law with m_1 = 0, take the same route, which
    # the partition sums confirm.
    rng = random.Random(75)
    mu1 = random_atomic(rng, QUARTER)
    mu2 = random_atomic(rng, QUARTER)
    out = cfree_multiplicative_convolve(
        MeasurePair(mu1, CircleMeasure.haar()), MeasurePair(mu2, CircleMeasure.haar()), 5
    )
    c = mu1.moment_series(1).coeffs[1] * mu2.moment_series(1).coeffs[1]
    assert out.nu.moment_series(5) == TruncatedSeries.zero(5, "exact")
    assert list(out.mu.moment_series(5).coeffs[1:]) == [c ** n for n in range(1, 6)]
    pairs = MeasurePair(mu1, CircleMeasure.haar()), MeasurePair(mu2, random_invertible_atomic(rng, QUARTER))
    assert pair_product_moments(*pairs, 5) == pair_product_by_partition_sums(*pairs, 5)
    zero_first = CircleMeasure.atomic(
        [(t, Fraction(1, 4)) for t in QUARTER]
    )
    pairs = MeasurePair(mu1, zero_first), MeasurePair(mu2, mu2)
    assert pair_product_moments(*pairs, 4) == pair_product_by_partition_sums(*pairs, 4)


def test_exact_pair_product_with_a_vanishing_first_moment_is_the_partition_sum():
    # Equal atoms at 1 and -1: m_1 = 0 but m_2 = 1, so the psi-law is not
    # uniform.  The T route cannot take it.
    half_turn = CircleMeasure.atomic([(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
    for pairs in ((MeasurePair(X, half_turn), MeasurePair(Y, Y)), (MeasurePair(X, Y), MeasurePair(Y, half_turn))):
        M, m = pair_product_by_partition_sums(*pairs, 6)
        assert pair_product_moments(*pairs, 6) == (M, m)
        assert m.coeffs[1] == 0 and m.coeffs[2]


def test_approx_uniform_pair_product_is_the_running_powers_of_c():
    # Over uniform psi-laws both subordination functions vanish, so
    # M = cz/(1 - cz) in both modes; in doubles its reciprocal's recurrence
    # multiplies by c once per coefficient, as a running product does.
    rng = random.Random(77)
    for order in (1, 7, 40):
        alpha = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
        laws = [random_atomic(rng, QUARTER), CircleMeasure.poisson(alpha)]
        pairs = [MeasurePair(law, CircleMeasure.haar()) for law in laws]
        out = cfree_multiplicative_convolve(*pairs, order, "approx")
        c = laws[0].moment_series(1, "approx").coeffs[1] * laws[1].moment_series(1, "approx").coeffs[1]
        powers = [c]
        while len(powers) < order:
            powers.append(powers[-1] * c)
        assert out.nu.moment_series(order) == TruncatedSeries.zero(order, "approx")
        assert out.mu.moment_series(order, "approx").coeffs[1:] == tuple(powers)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_uniform_pair_product_refuses_an_order_below_one(mode):
    half = CircleMeasure.atomic([(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))])
    p = MeasurePair(half, CircleMeasure.haar())
    for order in (0, -2):
        with pytest.raises(ArgumentError, match="at least one moment must be requested"):
            cfree_multiplicative_convolve(p, p, order, mode)


def test_pair_convolution_associates():
    rng = random.Random(76)
    pairs = [
        MeasurePair(
            random_atomic(rng, TWELFTH), random_atomic(rng, TWELFTH, anchored=True)
        )
        for _ in range(3)
    ]
    left = cfree_multiplicative_convolve(
        cfree_multiplicative_convolve(pairs[0], pairs[1], 6), pairs[2], 6
    )
    right = cfree_multiplicative_convolve(
        pairs[0], cfree_multiplicative_convolve(pairs[1], pairs[2], 6), 6
    )
    assert pair_gap(left, right, 6) < 1e-9
    swapped = cfree_multiplicative_convolve(pairs[1], pairs[0], 6)
    assert pair_gap(cfree_multiplicative_convolve(pairs[0], pairs[1], 6), swapped, 6) < 1e-12
    exact_pairs = [
        MeasurePair(random_atomic(rng, QUARTER), random_invertible_atomic(rng, QUARTER))
        for _ in range(2)
    ]
    out = cfree_multiplicative_convolve(exact_pairs[0], exact_pairs[1], 5)
    assert out.mu.moment_series(5).mode == "exact"


def test_pair_sigma_value_is_first_moment():
    rng = random.Random(77)
    for _ in range(5):
        pair = cfree_multiplicative_convolve(
            MeasurePair(random_atomic(rng, TWELFTH), random_atomic(rng, TWELFTH, anchored=True)),
            MeasurePair(random_atomic(rng, TWELFTH), random_atomic(rng, TWELFTH, anchored=True)),
            5,
        )
        sigma = sigma_series(
            pair.mu.moment_series(5, "approx"), pair.nu.moment_series(5, "approx")
        )
        assert abs(sigma.coeffs[0]) <= 1 + 1e-9
        assert abs(sigma.coeffs[0] - pair.mu.moment_series(1, "approx").coeffs[1]) < 1e-12


# ---------------------------------------------------------------------------
# Series exponentials and generators
# ---------------------------------------------------------------------------


def test_series_exp_log_round_trip():
    rng = random.Random(78)
    coeffs = [0.8 + 0.3j] + [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)
    ]
    f = TruncatedSeries.approx(coeffs)
    again = series_exp(series_log(f))
    assert max(abs(x - y) for x, y in zip(f.coeffs, again.coeffs)) < 1e-12
    half = series_pow(f, 0.5)
    assert max(abs(x - y) for x, y in zip((half * half).coeffs, f.coeffs)) < 1e-12
    with pytest.raises(DomainError):
        series_log(TruncatedSeries.approx([-1.0, 0.5]))
    with pytest.raises(ArgumentError):
        series_exp(TruncatedSeries.exact([1, 2]))


def test_herglotz_exponential_examples():
    gamma = cmath.exp(0.3j)
    empty = IdGenerator(gamma)
    flat = herglotz_exp(empty, -1, 5)
    assert all(abs(c) < 1e-15 for c in flat.coeffs[1:]) and abs(flat.coeffs[0] - gamma) < 1e-15
    s = 0.7
    g = IdGenerator(1, CircleMeasure.atomic([(0, Fraction(7, 10))], probability=False))
    b = herglotz_exp(g, -1, 5)
    assert abs(b.coeffs[0] - math.exp(-s)) < 1e-14
    assert abs(b.coeffs[1] + 2 * s * math.exp(-s)) < 1e-14
    two_sided = herglotz_exp(g, 1, 5) * herglotz_exp(g, -1, 5)
    assert abs(two_sided.coeffs[0] - 1) < 1e-13
    assert all(abs(c) < 1e-13 for c in two_sided.coeffs[1:])
    with pytest.raises(ArgumentError):
        herglotz_exp(g, 2, 4)
    with pytest.raises(ArgumentError):
        IdGenerator(0.5)


def test_idiv_measures_from_trivial_generators():
    gamma = cmath.exp(0.4j)
    g = IdGenerator(gamma)
    mb = idiv_boolean_measure(g, 5).moment_series(5)
    mf = idiv_free_measure(g, 5).moment_series(5)
    for n in range(1, 6):
        assert abs(mb.coeffs[n] - gamma ** n) < 1e-13
        assert abs(mf.coeffs[n] - gamma.conjugate() ** n) < 1e-13
    s = Fraction(7, 10)
    pois = IdGenerator(1, CircleMeasure.atomic([(0, s)], probability=False))
    first = idiv_boolean_measure(pois, 4).moment_series(4).coeffs[1]
    assert abs(first - math.exp(-float(s))) < 1e-14


# ---------------------------------------------------------------------------
# Semigroups
# ---------------------------------------------------------------------------


def _generators():
    gen_nu = IdGenerator(
        cmath.exp(0.2j),
        CircleMeasure.atomic([(Fraction(1, 3), Fraction(1, 4))], probability=False),
    )
    gen_pair = IdGenerator(
        cmath.exp(-0.1j),
        CircleMeasure.atomic(
            [(0, Fraction(1, 5)), (Fraction(1, 6), Fraction(1, 10))], probability=False
        ),
    )
    return gen_nu, herglotz_exp(gen_pair, -1, 7)


def test_semigroup_time_zero_and_one():
    gen_nu, target = _generators()
    start = semigroup_pair(gen_nu, target, 0, 8)
    unit = CircleMeasure.point_mass(0)
    assert start.mu == unit and start.nu == unit
    at_one = semigroup_pair(gen_nu, target, 1, 8)
    sigma = sigma_series(
        at_one.mu.moment_series(8, "approx"), at_one.nu.moment_series(8, "approx")
    )
    assert max(abs(x - y) for x, y in zip(sigma.coeffs, target.coeffs)) < 1e-10
    nu_expected = idiv_free_measure(gen_nu, 8)
    assert gap(at_one.nu, nu_expected, 8) < 1e-13


def test_semigroup_additivity():
    gen_nu, target = _generators()
    times = (Fraction(1, 4), Fraction(1, 2), 1)
    for s in times:
        for t in times:
            left = cfree_multiplicative_convolve(
                semigroup_pair(gen_nu, target, s, 8),
                semigroup_pair(gen_nu, target, t, 8),
                8,
            )
            right = semigroup_pair(gen_nu, target, s + t, 8)
            assert pair_gap(left, right, 8) < 1e-9


def test_semigroup_guards():
    gen_nu, target = _generators()
    with pytest.raises(ArgumentError):
        semigroup_pair(gen_nu, target, -1, 8)
    with pytest.raises(ArgumentError):
        semigroup_pair(gen_nu, target, 1, 12)
    with pytest.raises(DomainError):
        semigroup_pair(gen_nu, TruncatedSeries.approx([-0.5], 7), Fraction(1, 2), 8)
    with pytest.raises(ArgumentError):
        semigroup_pair(gen_nu, TruncatedSeries.approx([1.5], 7), 1, 8)


# ---------------------------------------------------------------------------
# Centering and the limit experiment
# ---------------------------------------------------------------------------


def rotation_constant(turns):
    return cmath.exp(1j * math.tau * float(turns))


def test_centering_examples():
    (turns0, centered0, h0), (turns1, centered1, h1), (turns2, _, h2) = (
        _center_one(law, 4)
        for law in (
            CircleMeasure.point_mass(0),
            CircleMeasure.point_mass(Fraction(1, 8)),
            CircleMeasure.atomic([(0, Fraction(99, 100)), (Fraction(1, 4), Fraction(1, 100))]),
        )
    )
    unit = CircleMeasure.point_mass(0)
    assert rotation_constant(turns0) == 1 and centered0 == unit
    assert all(abs(c) < 1e-15 for c in h0.coeffs)
    assert abs(rotation_constant(turns1) - cmath.exp(1j * math.tau / 8)) < 1e-15
    assert centered1 == unit
    assert all(abs(c) < 1e-15 for c in h1.coeffs)
    eps = 0.01
    assert rotation_constant(turns2) == 1
    assert abs(h2.coeffs[0] - (eps - 1j * eps)) < 1e-15
    with pytest.raises(ArgumentError):
        _center_one(CircleMeasure.haar(), 3)


def test_centering_wide_atom_stays_out():
    turns, centered, h = _center_one(CircleMeasure.point_mass(Fraction(1, 4)), 3)
    assert rotation_constant(turns) == 1
    assert centered == CircleMeasure.point_mass(Fraction(1, 4))
    assert abs(h.coeffs[0] - (1 - 1j)) < 1e-15


def test_limit_experiment_trivial_row():
    report = limit_experiment(0, Fraction(1, 4), (1,), 3)
    assert all(row["gap"] == 0 for row in report["rows"])
    assert abs(report["summary"]["gamma_n"][1] - 1) < 1e-15


def test_limit_experiment_trend():
    report = limit_experiment(Fraction(1, 2), Fraction(1, 4), (4, 8, 16), 3)
    sup = {}
    for row in report["rows"]:
        sup[row["n"]] = max(sup.get(row["n"], 0.0), row["gap"])
    assert sup[4] > sup[8] > sup[16]
    summary = report["summary"]
    s = 0.5
    for n in (4, 8, 16):
        assert abs(summary["gamma_n"][n] - cmath.exp(1j * s)) < 1e-12
        mass, first, second = summary["sigma_n_moments"][n]
        assert abs(mass - s) < 1e-12
        assert abs(first - s * 1j) < 1e-12
        assert abs(second + s) < 1e-12
    fit = summary["fit"]
    assert abs(fit["gamma"] - cmath.exp(1j * s)) < 0.05
    assert abs(fit["sigma_moments"][0] - s) < 0.05
    assert abs(fit["sigma_moments"][1] - s * 1j) < 0.05


def test_limit_experiment_forms_no_convolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the limit experiment convolved")

    for name in ("cfree_multiplicative_convolve", "boolean_convolve"):
        monkeypatch.setattr(measures, name, refuse)
    monkeypatch.setattr(TransformBundle, "power", refuse)  # rows are Sigma_1^n, not the T-route power
    report = limit_experiment(Fraction(1, 2), Fraction(1, 4), (4, 8, 16), 3)
    assert len(report["rows"]) == 12


@pytest.mark.parametrize("s, n", [(Fraction(1, 2), 1), (2, 4), (8, 16)])
def test_limit_experiment_refuses_a_vanishing_first_moment(s, n):
    # (1 - s/n) delta_1 + (s/n) delta_{1/2} has m_1 = 1 - 2s/n = 0
    with pytest.raises(UnsupportedDomainError, match="first moment vanishes"):
        limit_experiment(s, Fraction(1, 2), (n,), 3)


def test_exact_moments_of_no_law_are_a_domain_error():
    # m_1 = 1 forces the point mass at 1, whose second moment is 1, not -1:
    # the list is bounded by 1 but is no law, and its subordination functions
    # leave the disk.  Exact arithmetic lost nothing, so it says so; in
    # doubles the same gate cannot tell lost precision from such an input.
    x = CircleMeasure.moment_seq([ComplexRational(1), ComplexRational(-1)])
    with pytest.raises(DomainError, match="an input moment list is not the moment sequence of a law"):
        free_multiplicative_convolve(x, x, 2)
    with pytest.raises(DomainError, match="subordination functions at order 2 reach modulus"):
        cfree_multiplicative_convolve(MeasurePair(x, x), MeasurePair(x, x), 2)
    y = CircleMeasure.moment_seq([1.0, -1.0])
    with pytest.raises(NumericalError, match="^subordination functions at order 2 reach modulus"):
        free_multiplicative_convolve(y, y, 2)


# ---------------------------------------------------------------------------
# Positivity gate
# ---------------------------------------------------------------------------


def test_toeplitz_gate_examples():
    ok, smallest = toeplitz_psd_check(CircleMeasure.point_mass(Fraction(1, 4)).moment_series(6).coeffs[1:])
    assert ok and abs(smallest) < 1e-9
    ok, smallest = toeplitz_psd_check(CircleMeasure.haar().moment_series(6).coeffs[1:])
    assert ok and abs(smallest - 1) < 1e-12
    bad, smallest = toeplitz_psd_check([2, 0, 0, 0])
    assert not bad and smallest < -1e-3


@pytest.mark.parametrize(
    "moments, passes",
    [
        ([complex(0, math.inf), 0.5, 0.1, 0.1], False),
        ([0.5, math.nan, 0.1, 0.1], False),
        ([math.nan, 0.5], False),
        ([math.inf, 0.5], False),
        ([0.1, 0.2, math.nan, 0.1], True),  # the size-3 matrix reads m_1 and m_2 only
    ],
    ids=["inf-m1", "nan-m2", "nan-m1", "inf-m1-real", "nan-unread"],
)
def test_toeplitz_gate_refuses_a_non_finite_moment_it_reads(moments, passes):
    ok, _ = toeplitz_psd_check(moments)
    assert ok is passes


def _exact_pivots(moments, tolerance):
    """The LDL^H pivots of T + tolerance*I over the rationals, up to the first that is not positive.

    T is the Toeplitz matrix the gate reads, built from the moments as
    doubles, each taken exactly; a complex entry is a (re, im) pair.
    """
    size = len(moments) // 2 + 1
    doubles = [m.to_complex() if isinstance(m, ComplexRational) else complex(m) for m in moments]
    c = [(1 + Fraction(tolerance), Fraction(0))] + [
        (Fraction(z.real), Fraction(z.imag)) for z in doubles[: size - 1]
    ]
    # lower triangle: a[j][k] = c_{j-k}
    a = [[c[j - k] for k in range(j + 1)] for j in range(size)]
    pivots = []
    for k in range(size):
        d = a[k][k][0]
        pivots.append(d)
        if d <= 0:
            break
        for j in range(k + 1, size):
            fr, fi = a[j][k][0] / d, a[j][k][1] / d
            for i in range(k + 1, j + 1):
                yr, yi = a[i][k]  # a[j][i] -= (a[j][k] / d) * conj(a[i][k])
                r, s = a[j][i]
                a[j][i] = (r - (fr * yr + fi * yi), s - (fi * yr - fr * yi))
    return pivots


def _gate_inputs():
    """Convolution outputs, exact and approx, and perturbed atomic moments."""
    rng = random.Random(26)
    products = (
        boolean_convolve,
        free_multiplicative_convolve,
        lambda x, y, order: cfree_multiplicative_convolve(MeasurePair(x, y), MeasurePair(y, x), order).mu,
    )
    for order in (8, 12, 16):
        x, y = random_atomic(rng, QUARTER), random_atomic(rng, QUARTER)
        for product in products:
            yield product(x, y, order).moment_series(order).coeffs[1:]
    for order in (16, 16, 32, 32):
        x, y = random_invertible_atomic(rng, TWELFTH), random_invertible_atomic(rng, TWELFTH)
        for product in products:
            try:
                law = product(x, y, order)
            except NumericalError:  # the moment bound refuses a blown-up approx output
                continue
            yield law.moment_series(order).coeffs[1:]
    for _ in range(40):
        base = random_atomic(rng, TWELFTH).moment_series(16, "approx").coeffs[1:]
        noise = 10 ** rng.uniform(-13, -5)
        yield [m + complex(rng.gauss(0, noise), rng.gauss(0, noise)) for m in base]


def test_toeplitz_gate_decides_as_the_exact_pivots():
    decided = refused = 0
    for moments in _gate_inputs():
        for tolerance in (1e-9, 1e-7):
            pivots = _exact_pivots(moments, tolerance)
            if abs(min(pivots)) < 1e-12:
                continue
            ok, _ = toeplitz_psd_check(moments, tolerance)
            assert ok == (pivots[-1] > 0)
            decided += 1
            refused += not ok
    assert decided >= 100 and refused >= 10
