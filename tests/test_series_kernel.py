"""The series kernel against schoolbook references.

Every exact op runs on integer numerators over one denominator; here each is
compared with the plain coefficient-list formula it must reproduce, on fresh
coefficient lists and on kernel outputs, with numerators near 2^256 and
denominators up to 2^64 among the draws.  Composition and reversion are also
compared, at every order up to 24, with Horner's rule and the power-by-power
Lagrange loop run on the kernel, and quarter-turn moments with their
ComplexRational sums.  The approx kernel's dot products and shrinking-order
Horner's rule are compared bit for bit, signed zeros included, with the
nested loops that approx mode ran before them, at every order up to 64 and
on the moment series of three benchmark-shaped laws; where the inner series
of a composition or reversion passes the step rule (sum |c_k|^2 <= 1), with
giant-step references over the same loops, and with the exact kernel run on
the same doubles.  The product is also compared with the span-bounded
product it replaced, on terms that are infinite, NaN or subnormal.
"""
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cfreeconv.errors import ArgumentError, DomainError, NumericalError
from cfreeconv.measures import CircleMeasure, MeasurePair, cfree_multiplicative_convolve, free_multiplicative_convolve
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import TransformBundle
from cfreeconv.verify import _exact_of

# -- the reference: lists of ComplexRational, schoolbook loops ----------------

ZERO = ComplexRational()
ONE = ComplexRational(1)


def ref_mul(a, b):
    out = [ZERO] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = out[i + j] + x * b[j]
    return out


def ref_pow(a, k):
    out = [ONE] + [ZERO] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_reciprocal(a):
    inv = [ONE / a[0]]
    for n in range(1, len(a)):
        inv.append(-sum((a[k] * inv[n - k] for k in range(1, n + 1)), ZERO) / a[0])
    return inv


def ref_compose(f, g):
    n = min(len(f), len(g))
    f, g = f[:n], g[:n]
    out = [f[-1]] + [ZERO] * (n - 1)
    for c in reversed(f[:-1]):
        out = ref_mul(out, g)
        out[0] = out[0] + c
    return out


def ref_invert(f):
    # Lagrange: g_k = [z^(k-1)] h^k / k with h = z/f.
    h = ref_reciprocal(f[1:])
    g, power = [ZERO], h
    for k in range(1, len(f)):
        g.append(power[k - 1] / k)
        power = ref_mul(power, h)
    return g


# -- draws ---------------------------------------------------------------------

BIG = 2**256
numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(BIG - 2**32, BIG + 2**32),
    st.integers(-BIG - 2**32, -BIG + 2**32),
)
denominators = st.one_of(st.integers(1, 9), st.integers(1, 2**64))
scalars = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda a, b, c, d: ComplexRational(Fraction(a, b), Fraction(c, d)),
        numerators, denominators, numerators, denominators,
    ),
)
# Most draws are small, so that the reference's Fractions stay cheap.
small_scalars = st.builds(
    lambda a, b, c, d: ComplexRational(Fraction(a, b), Fraction(c, d)),
    st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9),
)


@st.composite
def series(draw, order=None, max_order=20, elements=scalars, zeros=True):
    """A fresh exact series, or one that the kernel itself made."""
    if order is None:
        order = draw(st.integers(0, max_order))
    coeffs = draw(st.lists(elements, min_size=order + 1, max_size=order + 1))
    if zeros:  # leading zeros; order + 1 of them make the zero series
        lead = draw(st.sampled_from([0, 1, 2, order + 1]))
        coeffs[:lead] = [ZERO] * min(lead, order + 1)
    s = TruncatedSeries.exact(coeffs)
    how = draw(st.sampled_from(["fresh", "sum", "product", "scaled"]))
    if how == "fresh":
        return s
    other = TruncatedSeries.exact(draw(st.lists(elements, min_size=order + 1, max_size=order + 1)))
    if how == "sum":  # (s + other) - other: a kernel output equal to s
        return (s + other) - other
    if how == "product" and other.coeffs[0]:  # (s * other) / other
        return (s * other) * other.reciprocal()
    return s.scale(ComplexRational(Fraction(3, 7), -2)).scale(ComplexRational(Fraction(21, 87), Fraction(14, 29)))


def pairs(max_order=20, elements=scalars):
    return st.integers(0, max_order).flatmap(
        lambda n: st.tuples(series(order=n, elements=elements), series(order=n, elements=elements))
    )


def agrees(result, reference):
    """The kernel output equals the reference, and so does its rebuild."""
    rebuilt = TruncatedSeries.exact(list(reference))
    return result.coeffs == tuple(reference) and result == rebuilt and hash(result) == hash(rebuilt)


SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- ops -----------------------------------------------------------------------


def near_big(count, sign):
    """count scalars with numerators near sign * 2^256 over small denominators."""
    return [
        ComplexRational(Fraction(sign * (BIG + 3 * k + 1), k + 1), Fraction(-sign * (BIG - 5 * k), 2 * k + 3))
        for k in range(count)
    ]


def dense(count, sign):
    return TruncatedSeries.exact(near_big(count, sign))


def constant(count):
    return TruncatedSeries.exact(near_big(1, 1), order=count - 1)


def monomial(count):
    return TruncatedSeries.exact([ZERO] * (count // 2) + near_big(1, -1), order=count - 1)


@SETTINGS
# Long dense operands with numerators near +-2^256, beyond the orders that
# hypothesis draws, and sparse operands, which the product multiplies in O(N).
@example((dense(16, 1), dense(16, -1)))
@example((dense(33, 1), dense(33, -1)))
@example((dense(49, 1), dense(49, -1)))
@example((constant(16), dense(16, -1)))
@example((dense(33, 1), monomial(33)))
@example((constant(17), monomial(17)))
@example((monomial(49), dense(49, -1)))
@given(pairs())
def test_mul(ab):
    a, b = ab
    assert agrees(a * b, ref_mul(a.coeffs, b.coeffs))


@SETTINGS
@given(pairs(), scalars)
def test_add_sub_neg_scale(ab, s):
    a, b = ab
    assert agrees(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)])
    assert agrees(a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)])
    assert agrees(-a, [-x for x in a.coeffs])
    assert agrees(a.scale(s), [s * x for x in a.coeffs])


@SETTINGS
@given(series(), st.data())
def test_truncate_and_shifts(a, data):
    k = data.draw(st.integers(0, a.order))
    assert agrees(a.truncate(k), a.coeffs[: k + 1])
    assert agrees(a.shift_up(), (ZERO,) + a.coeffs)
    if a.coeffs[0]:
        with pytest.raises(DomainError):
            a.shift_down()
    elif a.order:
        assert agrees(a.shift_down(), a.coeffs[1:])
    if a.order:
        assert agrees(a.derivative(), [k * c for k, c in enumerate(a.coeffs)][1:])
        assert a.to_approx().derivative() == TruncatedSeries.approx([k * c for k, c in enumerate(a.to_approx().coeffs)][1:])
    else:
        with pytest.raises(ArgumentError):
            a.derivative()


@SETTINGS
@given(series(max_order=12), st.integers(0, 4))
def test_pow_int(a, k):
    assert agrees(a.pow_int(k), ref_pow(a.coeffs, k))


@SETTINGS
@given(series())
def test_reciprocal(a):
    if not a.coeffs[0]:
        with pytest.raises(DomainError):
            a.reciprocal()
        return
    assert agrees(a.reciprocal(), ref_reciprocal(a.coeffs))


@settings(SETTINGS, max_examples=30)
@given(series(max_order=20, elements=small_scalars), series(max_order=20, elements=small_scalars))
def test_compose(f, g):
    if g.coeffs[0]:
        with pytest.raises(DomainError):
            f.compose(g)
        return
    assert agrees(f.compose(g), ref_compose(f.coeffs, g.coeffs))


@settings(SETTINGS, max_examples=20)
@given(pairs(max_order=10))
def test_compose_big_numerators(fh):
    f, h = fh
    g = h.shift_up()
    assert agrees(f.compose(g), ref_compose(f.coeffs, g.coeffs))


@settings(SETTINGS, max_examples=30)
@given(series(max_order=19, elements=small_scalars, zeros=False))
def test_invert_composition(h):
    f = h.shift_up()  # c_0 = 0 and c_1 = h_0
    if not f.coeffs[1]:
        with pytest.raises(DomainError):
            f.invert_composition()
        return
    assert agrees(f.invert_composition(), ref_invert(f.coeffs))


@settings(SETTINGS, max_examples=20)
@given(series(max_order=6, zeros=False))
def test_invert_composition_big_numerators(h):
    f = h.shift_up()
    if f.coeffs[1]:
        assert agrees(f.invert_composition(), ref_invert(f.coeffs))


@SETTINGS
@given(pairs())
def test_eq_and_hash_agree_with_the_coefficients(ab):
    a, b = ab
    rebuilt = TruncatedSeries.exact(a.coeffs)
    assert a == rebuilt and hash(a) == hash(rebuilt)
    assert (a == b) == (a.coeffs == b.coeffs)


@SETTINGS
@example(dense(16, 1))
@example(TruncatedSeries.exact([ComplexRational(Fraction(1, 3), Fraction(-1, 10**400))] * 2))
@given(series())
def test_exact_to_approx_is_each_coefficient_as_a_complex(a):
    assert bits(a.to_approx().coeffs) == bits([complex(c.re, c.im) for c in a.coeffs])


# -- compose and reversion at every order up to 24 -------------------------------


def seeded_series(rng, order, vanish=()):
    """An exact series of small Gaussian rationals, zero at the listed indices."""
    coeffs = [
        ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(order + 1)
    ]
    for k in vanish:
        if k <= order:
            coeffs[k] = ZERO
    return TruncatedSeries.exact(coeffs)


def horner(f, g):
    """f(g) by Horner's rule on the kernel: one series product per coefficient of f."""
    n = min(f.order, g.order)
    f, g = f.truncate(n), g.truncate(n)
    out = TruncatedSeries.constant(f.coeffs[n], n, f.mode)
    for k in range(n - 1, -1, -1):
        out = out * g + TruncatedSeries.constant(f.coeffs[k], n, f.mode)
    return out


def lagrange(f):
    """The reversion of f from every power of h = z/f: g_k = [z^(k-1)] h^k / k."""
    h = f.shift_down().reciprocal()
    g, power = [0], h
    for k in range(1, f.order + 1):
        g.append(power.coeffs[k - 1] / k)
        power = power * h
    return TruncatedSeries(g, f.mode)


def compose_cases(rng, n):
    """(outer, inner) pairs at order n: plain, mixed orders, zero blocks and c_1 = 0."""
    k = math.isqrt(n) + 1  # ceil(sqrt(n + 1)) coefficients per block of an exact composition
    outer = [(n, ()), (n + 3, ()), (n, ()), (n, range(k, n + 1 - k)), (n, range(n)), (n, ())]
    inner = [(n, [0]), (n, [0]), (n + 2, [0]), (n, [0]), (n, [0]), (n, [0, 1])]
    # The fourth outer series keeps only its first and last blocks, the fifth only its top term.
    for (m, zeros), (p, inner_zeros) in zip(outer, inner):
        yield seeded_series(rng, m, zeros), seeded_series(rng, p, inner_zeros)


@pytest.mark.parametrize("n", range(25))
def test_compose_is_horner_at_every_order(n):
    # n + 1 = k^2 at n = 3, 8, 15, 24 fills the last block exactly.
    rng = random.Random(1000 + n)
    for f, g in compose_cases(rng, n):
        assert f.compose(g) == horner(f, g)


@pytest.mark.parametrize("n", range(1, 25))
def test_invert_composition_is_lagrange_at_every_order(n):
    rng = random.Random(2000 + n)
    for vanish in ([0], [0, 2], [0] + list(range(2, n + 1))):
        f = seeded_series(rng, n, vanish=vanish)
        if f.coeffs[1]:
            assert f.invert_composition() == lagrange(f)


def close(result, reference, rel=1e-12):
    """Approx coefficients within rel times the largest modulus (at least 1) of the exact reference."""
    reference = reference.to_approx().coeffs
    scale = max(1.0, *map(abs, reference))
    return result.mode == "approx" and all(abs(x - y) <= rel * scale for x, y in zip(result.coeffs, reference))


@pytest.mark.parametrize("n", range(17))
def test_approx_compose_and_reversion_follow_the_references(n):
    # An inner with sum |c_k|^2 <= 1 takes giant steps, with their rounding;
    # any other keeps the rounding of Horner's rule and of the Lagrange loop.
    rng = random.Random(3000 + n)
    for f, g in compose_cases(rng, n):
        fa, ga = f.to_approx(), g.to_approx()
        if takes_giant_steps(ga.coeffs[: min(f.order, g.order) + 1]):
            assert bits(fa.compose(ga).coeffs) == bits(giant_compose(fa.coeffs, ga.coeffs))
        else:
            assert fa.compose(ga) == horner(fa, ga)
        assert close(fa.compose(ga), horner(f, g))
    if n:
        f = seeded_series(rng, n, vanish=[0])
        if f.coeffs[1]:
            fa = f.to_approx()
            if takes_giant_steps(loop_reciprocal(fa.coeffs[1:])):
                assert bits(fa.invert_composition().coeffs) == bits(giant_invert(fa.coeffs))
            else:
                assert fa.invert_composition() == lagrange(fa)
            assert close(fa.invert_composition(), lagrange(f))


def series_products(monkeypatch, op):
    """Calls of TruncatedSeries.__mul__ made by op()."""
    count = [0]
    product = TruncatedSeries.__mul__

    def counted(self, other):
        count[0] += 1
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    op()
    monkeypatch.undo()
    return count[0]


def test_traced_methods_stay_on_the_base_class():
    # The benchmark's tracer and the product counts above patch these on
    # TruncatedSeries; an override in a representation's class would escape
    # them and read 0 calls without any error.
    traced = {"__mul__", "compose", "reciprocal", "invert_composition"}
    assert traced <= set(vars(TruncatedSeries))
    subclasses, seen = TruncatedSeries.__subclasses__(), []
    while subclasses:
        cls = subclasses.pop()
        seen.append(cls)
        subclasses += cls.__subclasses__()
        assert traced.isdisjoint(vars(cls)), cls
    assert {type(TruncatedSeries.exact([1])), type(TruncatedSeries.approx([1]))} <= set(seen)


def test_exact_compose_and_reversion_make_about_two_sqrt_n_products(monkeypatch):
    n = 48
    rng = random.Random(48)
    f, g = seeded_series(rng, n), seeded_series(rng, n, vanish=[0])
    bound = 2 * math.ceil(math.sqrt(n + 1)) + 1
    assert series_products(monkeypatch, lambda: f.compose(g)) <= bound
    assert series_products(monkeypatch, g.invert_composition) <= bound


@pytest.mark.parametrize("n", range(1, 17))
def test_binomial_transform_is_composition_with_z_over_one_minus_z(n):
    rng = random.Random(4000 + n)
    geometric = TruncatedSeries.exact([0] + [1] * n)
    for f in (seeded_series(rng, n), seeded_series(rng, n, vanish=range(n))):
        assert f.binomial_transform() == f.compose(geometric)


# -- quarter-turn moments as integers -------------------------------------------


def ref_quarter_turn_moments(atoms, order):
    """m_k = sum_j w_j i^(q_j k) in ComplexRational arithmetic, with m_0 = 0."""
    unit = ComplexRational(0, 1)
    return [ZERO] + [
        sum((ComplexRational(w) * unit ** int(4 * t * k) for t, w in atoms), ZERO) for k in range(1, order + 1)
    ]


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("probability", [True, False])
def test_quarter_turn_moments_are_the_complex_rational_sums(atoms, probability):
    rng = random.Random(atoms + 10 * probability)
    for _ in range(10):
        turns = rng.sample([Fraction(q, 4) for q in range(4)], atoms)
        weights = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in turns]
        if probability:
            weights = [w / sum(weights) for w in weights]
        law = CircleMeasure.atomic(list(zip(turns, weights)), probability=probability)
        for order in (1, 3, 4, 5, 13):
            assert agrees(law.moment_series(order), ref_quarter_turn_moments(law.atoms, order))


# -- asymptotics: scalars built per op ------------------------------------------


def scalars_built(monkeypatch, op):
    """ComplexRational constructions by op(), counting the read of its coeffs."""
    count = [0]
    init = ComplexRational.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComplexRational, "__init__", counted)
    op().coeffs
    monkeypatch.undo()
    return count[0]


def test_exact_ops_build_linearly_many_scalars(monkeypatch):
    n = 32
    f = TruncatedSeries.exact([ComplexRational(Fraction(k + 2, 3), Fraction(1 - k, 5)) for k in range(n + 1)])
    g = TruncatedSeries.exact([0] + [ComplexRational(Fraction(1, k + 1), k % 3) for k in range(n)])
    assert scalars_built(monkeypatch, lambda: f * g) <= 4 * (n + 1)
    assert scalars_built(monkeypatch, lambda: f.compose(g)) <= 4 * (n + 1)
    assert scalars_built(monkeypatch, g.invert_composition) <= 4 * (n + 1)


# -- the approx kernel against the loops it replaced -----------------------------


def loop_mul(left, right):
    """The approx product as a nested loop over the nonzero terms."""
    n = len(left) - 1
    out = [0j] * (n + 1)
    for i, a in enumerate(left):
        if not a:
            continue
        for j in range(n + 1 - i):
            b = right[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return out


def loop_reciprocal(coeffs):
    """inv_n = -(c_1 inv_(n-1) + ... + c_n inv_0) / c_0, one term at a time."""
    a0 = coeffs[0]
    inv = [(1 + 0j) / a0]
    for n in range(1, len(coeffs)):
        acc = 0j
        for k in range(1, n + 1):
            acc = acc + coeffs[k] * inv[n - k]
        inv.append(-acc / a0)
    return inv


def loop_compose(f, g):
    """Horner's rule at full order over loop_mul: out <- out g + c_k."""
    n = min(len(f), len(g)) - 1
    out = [f[n]] + [0j] * n
    for c in reversed(f[:n]):
        out = [x + y for x, y in zip(loop_mul(out, g[: n + 1]), [c] + [0j] * n)]
    return out


def loop_invert(f):
    """Lagrange reversion over every power of h = z/f, by loop_mul and loop_reciprocal."""
    n = len(f) - 1
    h = loop_reciprocal(f[1:])
    one = [1 + 0j] + [0j] * (n - 1)
    g, power = [0j], h
    for k in range(1, n + 1):
        g.append(sum(map(mul, power[:k], one[k - 1 :: -1])) / k)
        power = loop_mul(power, h)
    return g


def takes_giant_steps(inner):
    """The step rule: giant steps over an inner series whose coefficients have sum |c_k|^2 <= 1."""
    return sum(c.real * c.real + c.imag * c.imag for c in inner) <= 1


def giant_compose(f, g):
    """Brent-Kung over loop_mul: blocks of k = ceil(sqrt(n + 1)) coefficients, Horner's rule in g^k.

    Block j is c_(jk) at degree 0 plus c_(jk+i) g^i over 0 < i < k, added in
    ascending i and skipping zero coefficients; blocks and values run at full
    order, which changes no coefficient up to n.
    """
    n = min(len(f), len(g)) - 1
    f, g = f[: n + 1], g[: n + 1]
    k = math.isqrt(n) + 1
    powers = [[1 + 0j] + [0j] * n, list(g)]
    while len(powers) <= k:
        powers.append(loop_mul(powers[-1], g))
    giant = powers.pop()
    blocks = []
    for start in range(0, n + 1, k):
        block = [f[start]] + [0j] * n
        for c, power in zip(f[start + 1 : start + k], powers[1:]):
            if c:
                block = [b + c * x for b, x in zip(block, power)]
        blocks.append(block)
    out = blocks.pop()
    for block in reversed(blocks):
        out = [x + y for x, y in zip(loop_mul(out, giant), block)]
    return out


def giant_invert(f):
    """Johansson's Lagrange reversion over loop_mul: g_k = [z^(k-1)] (h^s)^(k // s) h^(k % s) / k, s = ceil(sqrt(n))."""
    n = len(f) - 1
    h = loop_reciprocal(f[1:])
    s = math.isqrt(n - 1) + 1
    baby = [[1 + 0j] + [0j] * (n - 1), h]
    while len(baby) <= s:
        baby.append(loop_mul(baby[-1], h))
    giants = [baby[0], baby.pop()]
    while len(giants) <= n // s:
        giants.append(loop_mul(giants[-1], giants[1]))
    return [0j] + [sum(map(mul, giants[k // s][:k], baby[k % s][k - 1 :: -1])) / k for k in range(1, n + 1)]


def approx_compose_reference(f, g):
    """giant_compose where the truncated inner takes giant steps, loop_compose otherwise."""
    n = min(len(f), len(g)) - 1
    return giant_compose(f, g) if takes_giant_steps(g[: n + 1]) else loop_compose(f, g)


def approx_invert_reference(f):
    """giant_invert where h = z/f takes giant steps, loop_invert otherwise."""
    return giant_invert(f) if takes_giant_steps(loop_reciprocal(f[1:])) else loop_invert(f)


def span_bounded_mul(a, b):
    """The approx product as the kernel formed it with two bounds and two slices per coefficient."""
    count = len(a)
    out = [0j] * count
    left = [i for i, x in enumerate(a) if x]
    right = [j for j, y in enumerate(b) if y]
    if not (left and right):
        return out
    (lo_a, hi_a), (lo_b, hi_b) = (left[0], left[-1]), (right[0], right[-1])
    rev = b[::-1]  # rev[count - 1 - j] = b_j
    for k in range(lo_a + lo_b, min(count - 1, hi_a + hi_b) + 1):
        lo, hi = max(lo_a, k - hi_b), min(hi_a, k - lo_b)
        top = count - 1 - k
        out[k] = sum(map(mul, a[lo : hi + 1], rev[top + lo : top + hi + 1]))
    return out


def bits(coeffs):
    """The coefficients as float.hex pairs, so that -0.0 and 0.0 differ."""
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


ZEROS = (0.0, -0.0)


def approx_coeffs(rng, order, lead=0):
    """Complex coefficients of mixed sizes, with interior zeros and zero parts of either sign.

    The first ``lead`` are zeros of random sign; a quarter of the draws stop
    at a random degree (a polynomial, trailing zeros).
    """
    out = []
    for k in range(order + 1):
        u = rng.random()
        if k < lead or u < 0.15:
            c = complex(rng.choice(ZEROS), rng.choice(ZEROS))
        elif u < 0.3:
            c = complex(rng.uniform(-2, 2), rng.choice(ZEROS))
        elif u < 0.4:
            c = complex(rng.choice(ZEROS), rng.uniform(-2, 2))
        else:
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * 10.0 ** rng.randint(-3, 3)
        out.append(c)
    if order and rng.random() < 0.25:
        degree = rng.randint(lead, order)
        out[degree + 1 :] = [0j] * (order - degree)
    return out


def nonzero_at(rng, coeffs, k):
    if not coeffs[k]:
        coeffs[k] = complex(rng.uniform(0.5, 2), rng.choice(ZEROS))
    return coeffs


# Moment series shaped like the laws of the benchmarks: a three-atom law at
# twelfth turns, a near-identity factor (1 - s/n) delta_0 + (s/n) delta_omega
# with s = 1/2, n = 32, omega = 1/12, and a Poisson law.
LAWS = (
    CircleMeasure.atomic([(Fraction(1, 12), Fraction(1, 2)), (Fraction(5, 12), Fraction(1, 3)), (Fraction(3, 4), Fraction(1, 6))]),
    CircleMeasure.atomic([(0, 1 - Fraction(1, 64)), (Fraction(1, 12), Fraction(1, 64))]),
    CircleMeasure.poisson(0.3 + 0.4j),
)


def giant_close(result, f, g=None):
    """A composition f(g), or the reversion of f, within 1e-12 of the exact kernel on the same doubles."""
    exact = _exact_of(f)
    return close(result, exact.compose(_exact_of(g)) if g is not None else exact.invert_composition())


@pytest.mark.parametrize("n", range(65))
def test_approx_kernel_is_the_loops_bit_for_bit(n):
    # Compositions and reversions follow the loops where the inner fails the
    # step rule; where it passes, they follow the giant-step references and
    # stay within 1e-12 of the exact kernel on the same doubles.
    rng = random.Random(5000 + n)
    if n in (16, 32, 64):
        moments = [law.moment_series(n, "approx") for law in LAWS]
        for f in moments:
            assert bits(f.invert_composition().coeffs) == bits(approx_invert_reference(f.coeffs))
            for g in moments:
                assert bits((f * g).coeffs) == bits(loop_mul(f.coeffs, g.coeffs))
                assert bits(f.compose(g).coeffs) == bits(approx_compose_reference(f.coeffs, g.coeffs))
                if takes_giant_steps(g.coeffs):
                    assert giant_close(f.compose(g), f, g)
    for _ in range(3):
        a, b = approx_coeffs(rng, n), approx_coeffs(rng, n, lead=rng.choice([0, 1, 2]))
        A, B = TruncatedSeries.approx(a), TruncatedSeries.approx(b)
        assert bits((A * B).coeffs) == bits(loop_mul(A.coeffs, B.coeffs))
        assert bits((B * A).coeffs) == bits(loop_mul(B.coeffs, A.coeffs))
        unit = TruncatedSeries.approx(nonzero_at(rng, a, 0))
        assert bits(unit.reciprocal().coeffs) == bits(loop_reciprocal(unit.coeffs))
        inner = TruncatedSeries.approx(approx_coeffs(rng, n + rng.choice([0, 2]), lead=1))
        assert bits(A.compose(inner).coeffs) == bits(approx_compose_reference(A.coeffs, inner.coeffs))
        if takes_giant_steps(inner.coeffs[: n + 1]):
            assert giant_close(A.compose(inner), A, inner.truncate(n))
        if n:
            f = TruncatedSeries.approx(nonzero_at(rng, approx_coeffs(rng, n, lead=1), 1))
            assert bits(f.invert_composition().coeffs) == bits(approx_invert_reference(f.coeffs))
            if takes_giant_steps(loop_reciprocal(f.coeffs[1:])):
                # Exact reversions of random 53-bit dyadic draws take seconds
                # beyond order 16; truncation commutes with reversion.
                top = min(n, 16)
                assert giant_close(f.invert_composition().truncate(top), f.truncate(top))


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310)


def special_coeffs(rng, count):
    """Complex coefficients that are often signed zeros, infinities, NaNs or subnormals.

    About a third of the draws start with zeros of random sign, and as many end
    with zeros (a multiplier shorter than the truncation).
    """
    def part():
        return rng.choice(SPECIAL) if rng.random() < 0.45 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-300, 300)

    out = [complex(part(), part()) for _ in range(count)]
    if rng.random() < 0.3:
        lead = rng.randint(0, count)
        out[:lead] = [complex(rng.choice(ZEROS), rng.choice(ZEROS))] * lead
    if rng.random() < 0.3:
        tail = rng.randint(0, count)
        out[count - tail :] = [0j] * tail
    return tuple(out)


@pytest.mark.parametrize("seed", range(8))
def test_approx_product_keeps_the_span_bounded_bits_with_non_finite_terms(seed):
    # loop_mul skips interior zeros, so it cannot judge inf or NaN (0 * inf
    # is NaN); the span-bounded product can.  bits() tells -0.0 from 0.0 and
    # writes every NaN as 'nan'.
    rng = random.Random(7700 + seed)
    for _ in range(400):
        count = rng.randint(1, 20)
        a, b = special_coeffs(rng, count), special_coeffs(rng, count)
        got = (TruncatedSeries.approx(a) * TruncatedSeries.approx(b)).coeffs
        assert bits(got) == bits(span_bounded_mul(a, b))


def test_approx_composition_multiplies_at_shrinking_orders(monkeypatch):
    # Horner's value after coefficient j of f is kept to order n - j, so the
    # n products run at orders 1..n; at full order each would cost
    # (n + 1)(n + 2)/2 multiply-adds.
    n = 64
    rng = random.Random(64)
    f = TruncatedSeries.approx(approx_coeffs(rng, n))
    g = TruncatedSeries.approx(approx_coeffs(rng, n, lead=1))
    assert not takes_giant_steps(g.coeffs)  # Horner's rule: blocks of one coefficient
    orders = []
    product = TruncatedSeries.__mul__

    def recorded(self, other):
        orders.append(self.order)
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recorded)
    f.compose(g)
    monkeypatch.undo()
    assert orders == list(range(1, n + 1))
    work = sum((k + 1) * (k + 2) // 2 for k in orders)
    assert work <= 0.4 * n * (n + 1) * (n + 2) // 2


def test_step_rule_boundary(monkeypatch):
    # Four coefficients 1/2 make sum |c_k|^2 = 1.  Just below, a composition
    # at n = 16 takes giant steps of k = 5: g^2..g^5 and 3 Horner steps in
    # g^5.  Just above, it takes Horner's rule, 16 products, with the loop's
    # bits.  A reversion over h = z/f takes s = 4: h^2..h^4 and
    # (h^4)^2..(h^4)^4, or the loop's 15 powers h^2..h^16.
    n = 16
    f = TruncatedSeries.approx(approx_coeffs(random.Random(16), n))
    cases = ((0.5 - 2**-40, 7, 6, giant_compose, giant_invert), (0.5 + 2**-40, 16, 15, loop_compose, loop_invert))
    for last, composing, reverting, compose_reference, invert_reference in cases:
        h = TruncatedSeries.approx([0.5, 0.5, 0.5, last], order=n - 1)
        assert takes_giant_steps(h.coeffs) == (last < 0.5)
        g = h.shift_up()
        assert series_products(monkeypatch, lambda: f.compose(g)) == composing
        assert bits(f.compose(g).coeffs) == bits(compose_reference(f.coeffs, g.coeffs))
        z_over_h = h.reciprocal().shift_up()
        assert takes_giant_steps(loop_reciprocal(z_over_h.coeffs[1:])) == (last < 0.5)
        assert series_products(monkeypatch, z_over_h.invert_composition) == reverting
        assert bits(z_over_h.invert_composition().coeffs) == bits(invert_reference(z_over_h.coeffs))


def test_approx_products_take_giant_steps(monkeypatch):
    # At N = 64 the Newton steps of subordination compose over omega and eta,
    # Schur functions: 132 series products for a free product and 164 for a
    # c-free one whose pairs are not self-paired, where Horner's rule made 357
    # and 487.
    a, b = LAWS[0], LAWS[1]
    free = series_products(monkeypatch, lambda: free_multiplicative_convolve(a, b, 64, "approx"))
    pair = series_products(monkeypatch, lambda: cfree_multiplicative_convolve(MeasurePair(a, b), MeasurePair(b, a), 64, "approx"))
    assert free <= 150 and pair <= 180


def one_plus(coeffs):
    return [x + y for x, y in zip([1 + 0j] + [0j] * (len(coeffs) - 1), coeffs)]


@pytest.mark.parametrize("n", (16, 32))
def test_approx_bundles_keep_horner_and_the_loop(n):
    # z/m and z/eta start at 1/m_1, and m^-1 and eta^-1 grow like |1/m_1|^k,
    # so no composition or reversion of a bundle takes giant steps: T, cT and
    # Sigma keep the bits of Horner's rule and the Lagrange loop.  Sigma's
    # two-route gate then decides on those bits; at 32 it refuses some pairs.
    moments = [law.moment_series(n, "approx") for law in LAWS]
    for M in moments:
        for m in moments:
            bundle = TransformBundle(M, m)
            eta_m = loop_mul(m.coeffs, loop_reciprocal(one_plus(m.coeffs)))
            b_M = loop_mul(M.coeffs, loop_reciprocal(one_plus(M.coeffs)))[1:]
            m_inverse = loop_invert(m.coeffs)
            t = loop_compose(eta_m[1:], m_inverse)
            assert bits(bundle.T.coeffs) == bits(t)
            assert bits(bundle.cT.coeffs) == bits(t if M == m else loop_compose(b_M, m_inverse))
            sigma = loop_compose(b_M, loop_invert(eta_m))
            assert bits(bundle.B.compose(bundle.eta.invert_composition()).coeffs) == bits(sigma)
            try:
                assert bits(bundle.Sigma.coeffs) == bits(sigma)
            except NumericalError:
                assert n == 32


def compositions(monkeypatch, op):
    """Calls of TruncatedSeries.compose made by op()."""
    count = [0]
    compose = TruncatedSeries.compose

    def counted(self, inner):
        count[0] += 1
        return compose(self, inner)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    op()
    monkeypatch.undo()
    return count[0]


def test_self_paired_bundle_takes_ct_from_t(monkeypatch):
    # The c-free product of pairs (nu, nu) is the free product: cT = b(m) o m^-1 = T.
    rng = random.Random(66)
    m = seeded_series(rng, 12, vanish=[0, 3, 7])
    m = TruncatedSeries.exact([0, 1] + list(m.coeffs[2:]))
    # The copy's zeros carry the other sign: approx == counts them equal, and
    # the sign of a zero cannot reach cT, as the last assertion shows.
    flipped = [complex(-0.0 if not c.real else c.real, -0.0 if not c.imag else c.imag) for c in m.to_approx().coeffs]
    for psi, copy in ((m, TruncatedSeries.exact(m.coeffs)), (m.to_approx(), TruncatedSeries.approx(flipped))):
        for phi in (psi, copy):
            bundle = TransformBundle(phi, psi)
            bundle.T
            assert compositions(monkeypatch, lambda: bundle.cT) == 0
            assert bundle.cT is bundle.T
            by_definition = bundle.B.compose(psi.invert_composition())
            assert by_definition == bundle.cT
            if psi.mode == "approx":
                assert bits(by_definition.coeffs) == bits(bundle.cT.coeffs)
