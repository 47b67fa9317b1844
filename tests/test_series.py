"""Truncated-series arithmetic, inversion and boxed convolution."""
import random
from fractions import Fraction

import pytest

from cfreeconv.errors import ArgumentError, DomainError
from cfreeconv.series import (
    APPROX,
    EXACT,
    ComplexRational,
    TruncatedSeries,
)
from cfreeconv.oracles import boxed_convolution, boxed_convolution_checked, cf_weight


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def random_scalar(rng, nonzero=False):
    while True:
        s = q(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )
        if s or not nonzero:
            return s


def random_series(rng, order, c0=None, c1_nonzero=False):
    coeffs = [random_scalar(rng) for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = q(c0)
    if c1_nonzero:
        coeffs[1] = random_scalar(rng, nonzero=True)
    return TruncatedSeries.exact(coeffs)


def test_complex_rational_arithmetic():
    a = q(Fraction(1, 2), 1)
    b = q(2, Fraction(-1, 3))
    assert a + b == q(Fraction(5, 2), Fraction(2, 3))
    assert a * b == q(Fraction(4, 3), Fraction(11, 6))
    assert (a / b) * b == a
    assert a**3 == a * a * a
    assert a.conjugate().im == -1
    with pytest.raises(ZeroDivisionError):
        a / q(0)


def test_complex_rational_hash_agrees_with_eq():
    for value in (0, 1, -3, Fraction(2, 7)):
        assert q(value) == value
        assert hash(q(value)) == hash(value)
    assert len({q(1), 1}) == 1
    assert len({q(1, 1), q(1)}) == 2


def test_complex_rational_str():
    assert str(ComplexRational(1)) == "1+0i"
    assert str(ComplexRational(1, Fraction(-1, 2))) == "1-1/2i"


def test_series_construction_and_mode_rules():
    s = TruncatedSeries.exact([1, 2], order=3)
    assert s.coeffs[3] == q(0)
    t = TruncatedSeries.approx([0.5, 1j])
    with pytest.raises(ArgumentError):
        s + t  # mode mismatch
    with pytest.raises(ArgumentError):
        s + TruncatedSeries.exact([1], order=2)  # order mismatch
    with pytest.raises(ArgumentError):
        TruncatedSeries([1.5], EXACT)  # floats are not exact scalars


def test_mul_matches_convolution():
    s = TruncatedSeries.exact([1, 2, 3], order=4)
    t = TruncatedSeries.exact([0, 1, 1], order=4)
    prod = s * t
    # (1 + 2z + 3z^2)(z + z^2) = z + 3z^2 + 5z^3 + 3z^4
    assert [c.re for c in prod.coeffs] == [0, 1, 3, 5, 3]


def test_compose_and_horner():
    f = TruncatedSeries.exact([1, 1, 1], order=3)  # 1 + z + z^2
    g = TruncatedSeries.exact([0, 2, 1], order=3)  # 2z + z^2
    h = f.compose(g)
    # 1 + (2z + z^2) + (2z + z^2)^2 = 1 + 2z + 5z^2 + 4z^3 + ...
    assert [c.re for c in h.coeffs] == [1, 2, 5, 4]
    with pytest.raises(DomainError):
        g.compose(f)  # inner constant term must vanish


def test_reciprocal_and_roundtrip():
    rng = random.Random(1)
    one = TruncatedSeries.constant(1, 8, EXACT)
    for _ in range(100):
        s = random_series(rng, 8)
        if not s.coeffs[0]:
            continue
        assert s * s.reciprocal() == one


def test_invert_composition_examples():
    # alpha z + beta z^2 inverts to z/alpha - (beta/alpha^3) z^2 + ...
    alpha, beta = q(3), q(2)
    f = TruncatedSeries.exact([0, alpha, beta], order=2)
    g = f.invert_composition()
    assert g.coeffs[1] == q(Fraction(1, 3))
    assert g.coeffs[2] == q(Fraction(-2, 27))
    # z + z^2 inverts with signed Catalan coefficients
    f2 = TruncatedSeries.exact([0, 1, 1], order=4)
    g2 = f2.invert_composition()
    assert [c.re for c in g2.coeffs] == [0, 1, -1, 2, -5]
    for bad in ([1, 1, 1], [0, 0, 1], [0]):
        with pytest.raises(DomainError):
            TruncatedSeries.exact(bad).invert_composition()


def test_invert_composition_roundtrip():
    rng = random.Random(2)
    ident = TruncatedSeries.identity(8, EXACT)
    for _ in range(100):
        f = random_series(rng, 8, c0=0, c1_nonzero=True)
        g = f.invert_composition()
        assert f.compose(g) == ident
        assert g.compose(f) == ident


def test_shift_up_down():
    s = TruncatedSeries.exact([0, 1, 2, 3])
    assert s.shift_down().coeffs == (q(1), q(2), q(3))
    assert s.shift_down().shift_up() == s
    with pytest.raises(DomainError):
        TruncatedSeries.exact([1, 1]).shift_down()


def test_cf_weight():
    from cfreeconv.partitions import NCPartition

    f = TruncatedSeries.exact([7, 2, 3, 5], order=3)
    p = NCPartition(3, [[1, 3], [2]])
    assert cf_weight(p, f) == q(6)  # c_2 * c_1


def test_boxed_convolution_low_orders():
    a1, a2, b1, b2 = q(2), q(-3), q(5), q(7)
    f = TruncatedSeries.exact([0, a1, a2], order=2)
    g = TruncatedSeries.exact([0, b1, b2], order=2)
    h = boxed_convolution(f, g)
    assert h.coeffs[1] == a1 * b1
    assert h.coeffs[2] == a2 * b1 * b1 + a1 * a1 * b2
    checked = boxed_convolution_checked(f, g)
    assert checked.coeffs[1] == a1 * b1
    assert checked.coeffs[2] == a1 * a1 * b2


def test_boxed_convolution_unit_and_commutativity():
    rng = random.Random(3)
    for _ in range(25):
        f = random_series(rng, 5, c0=0)
        g = random_series(rng, 5, c0=0)
        unit = TruncatedSeries.identity(5, EXACT)
        assert boxed_convolution(f, unit) == f
        assert boxed_convolution(unit, f) == f
        assert boxed_convolution(f, g) == boxed_convolution(g, f)


def test_boxed_convolution_checked_inverse_identity():
    # With invertible first coefficient: f^{<-1>} o (f x g) = (1/a1)(f xv g).
    rng = random.Random(4)
    for _ in range(60):
        f = random_series(rng, 6, c0=0, c1_nonzero=True)
        g = random_series(rng, 6, c0=0)
        lhs = f.invert_composition().compose(boxed_convolution(f, g))
        rhs = boxed_convolution_checked(f, g).scale(q(1) / f.coeffs[1])
        assert lhs == rhs


def test_series_json_roundtrip():
    s = TruncatedSeries.exact([q(Fraction(1, 3), Fraction(-2, 7)), 4], order=2)
    assert TruncatedSeries.from_json(s.to_json()) == s
    t = TruncatedSeries.approx([1.5 + 2j, 0.25])
    assert TruncatedSeries.from_json(t.to_json()) == t
    blob = s.to_json()
    assert blob["coeffs"][0] == ["1/3", "-2/7"]


def test_scale_and_pow():
    s = TruncatedSeries.exact([1, 1], order=3)
    assert s.pow_int(2).coeffs[:3] == (q(1), q(2), q(1))
    f = TruncatedSeries.exact([q(2, -1), q(Fraction(1, 3)), 0, q(-1, 2), q(0, Fraction(5, 7))])
    product = TruncatedSeries.constant(1, f.order, "exact")
    for k in range(10):
        assert f.pow_int(k) == product
        product = product * f
    assert s.scale(q(0, 1)).coeffs[0] == q(0, 1)
