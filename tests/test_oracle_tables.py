"""The oracle layer's block-size tables against per-partition sums.

Each reference below is the loop that summed one coefficient product per
partition before the sums went over tables.  On random exact series the two
routes must agree under ``==``; in approx mode count-times-product rounds
differently from repeated addition, so they agree to 1e-12 relative to the
sum of the terms' moduli.
"""
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from cfreeconv import oracles
from cfreeconv.errors import ArgumentError
from cfreeconv.partitions import enumerate_nc, enumerate_nc_0, enumerate_ncl, kreweras, ncl_classify
from cfreeconv.series import ComplexRational, TruncatedSeries, _one, _zero

# No shrink phase: every shrink step reruns the slow references, and a failing
# example at order 8 is small enough to read as drawn.
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the per-partition loops ---------------------------------------------------


def reference_nc_sum(cr, r):
    out = [_zero(r.mode)]
    for n in range(1, r.order + 1):
        acc = _zero(r.mode)
        for p in enumerate_nc(n):
            term = _one(r.mode)
            for b in p.exterior_blocks():
                term = term * cr.coefficient(len(b))
            for b in p.interior_blocks():
                term = term * r.coefficient(len(b))
            acc = acc + term
        out.append(acc)
    return TruncatedSeries(out, r.mode)


def reference_linked_sum(ct, t, n_max):
    out = [_zero(t.mode)]
    for n in range(1, n_max + 1):
        acc = _zero(t.mode)
        for g in enumerate_ncl(n):
            ext, intr, _, _ = ncl_classify(g)
            term = t.coeffs[0] ** (n - len(g.blocks))
            for b in ext:
                term = term * ct.coefficient(len(b) - 1)
            for b in intr:
                term = term * t.coefficient(len(b) - 1)
            acc = acc + term
        out.append(acc)
    return TruncatedSeries(out, t.mode)


def reference_boxed_sum(f, g, first_singleton):
    out = [_zero(f.mode)]
    for n in range(1, f.order + 1):
        acc = _zero(f.mode)
        for p in enumerate_nc(n):
            if first_singleton and (1,) not in p.blocks:
                continue
            acc = acc + oracles.cf_weight(p, f) * oracles.cf_weight(kreweras(p), g)
        out.append(acc)
    return TruncatedSeries(out, f.mode)


def reference_coupled_sum(odd_ext, odd_int, even_ext, even_int, n):
    families = ((even_int, even_ext), (odd_int, odd_ext))
    acc = _zero(odd_ext.mode)
    for sigma in enumerate_nc_0(2 * n):
        ext = set(sigma.ext_blocks)
        term = _one(odd_ext.mode)
        for idx, b in enumerate(sigma.blocks):
            fam = families[b[0] % 2][idx in ext]
            term = term * fam.coefficient(len(b))
        acc = acc + term
    return acc


# -- inputs and comparison -----------------------------------------------------

small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
scalars = st.one_of(st.just(ComplexRational()), st.builds(ComplexRational, small, small))


@st.composite
def series(draw, order, vanishing=False):
    coeffs = draw(st.lists(scalars, min_size=order + 1, max_size=order + 1))
    if vanishing:
        coeffs[0] = ComplexRational()
    return TruncatedSeries.exact(coeffs)


modes = st.sampled_from(["exact", "approx"])


def in_mode(mode, *series_list):
    return [s if mode == "exact" else s.to_approx() for s in series_list]


def moduli(*series_list):
    return [TruncatedSeries.approx([abs(c) for c in s.coeffs]) for s in series_list]


def values(v):
    """The coefficients of a series, or a lone scalar as a 1-tuple."""
    return v.coeffs if isinstance(v, TruncatedSeries) else (v,)


def assert_agree(mode, got, reference, families, *rest):
    """``got`` is ``reference(*families, *rest)``: ``==`` when exact, else within
    1e-12 of the reference run on the moduli of the coefficients."""
    want = reference(*families, *rest)
    if mode == "exact":
        assert got == want
        return
    scale = reference(*moduli(*families), *rest)
    assert len(values(got)) == len(values(want))
    for a, b, s in zip(values(got), values(want), values(scale)):
        assert abs(a - b) <= 1e-12 * max(s.real, 1e-300)


# -- the tables against the loops ---------------------------------------------


@SETTINGS
@given(modes, st.integers(1, 8).flatmap(lambda n: st.tuples(series(n, True), series(n, True))))
def test_nc_sums(mode, pair):
    cr, r = in_mode(mode, *pair)
    assert_agree(mode, oracles.phi_moments_nc_sum(cr, r), reference_nc_sum, (cr, r))
    assert_agree(mode, oracles.moments_from_free_cumulants_nc_sum(r), reference_nc_sum, (r, r))


@SETTINGS
@given(modes, st.integers(0, 6).flatmap(lambda n: st.tuples(series(n), series(n))), st.booleans(), st.data())
def test_linked_sums(mode, pair, zero_head, data):
    ct, t = pair
    if zero_head:
        t = TruncatedSeries.exact([0] + list(t.coeffs[1:]))
    ct, t = in_mode(mode, ct, t)
    n_max = data.draw(st.integers(0, t.order + 1))
    assert_agree(mode, oracles.phi_moments_via_linked_blocks(ct, t, n_max), reference_linked_sum, (ct, t), n_max)
    assert_agree(mode, oracles.psi_moments_via_linked_blocks(t, n_max), reference_linked_sum, (t, t), n_max)


@SETTINGS
@given(modes, st.integers(1, 8).flatmap(lambda n: st.tuples(series(n, True), series(n, True))))
def test_boxed_sums(mode, pair):
    f, g = in_mode(mode, *pair)
    assert_agree(mode, oracles.boxed_convolution(f, g), reference_boxed_sum, (f, g), False)
    assert_agree(mode, oracles.boxed_convolution_checked(f, g), reference_boxed_sum, (f, g), True)


@SETTINGS
@given(modes, st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), *[series(n, True)] * 4)))
def test_coupled_sums(mode, drawn):
    n, *families = drawn
    x_cr, x_r, y_cr, y_r = in_mode(mode, *families)
    x, y = SimpleNamespace(cR=x_cr, R=x_r), SimpleNamespace(cR=y_cr, R=y_r)
    assert_agree(mode, oracles.product_psi_cumulants(x_r, y_r, n), reference_coupled_sum, (x_r, x_r, y_r, y_r), n)
    assert_agree(mode, oracles.product_phi_cumulants(x, y, n), reference_coupled_sum, (x_cr, x_r, y_cr, y_r), n)


# -- the integer route: lcm scaling and the per-length power of d ---------------


def wide_scalars(base):
    """Exact scalars with numerators near 2^80 over powers of ``base``, or zero."""
    near = st.builds(lambda sign, k: sign * (2**80 + k), st.sampled_from([-1, 1]), st.integers(-1000, 1000))
    part = st.builds(Fraction, near, st.integers(0, 6).map(lambda e: base**e))
    return st.one_of(st.just(ComplexRational()), st.builds(ComplexRational, part, part))


@st.composite
def wide_series(draw, order, base):
    """An exact series with vanishing constant term over powers of ``base``, or all zeros."""
    if draw(st.integers(0, 4)) == 0:
        return TruncatedSeries.zero(order, "exact")
    return TruncatedSeries.exact([0] + draw(st.lists(wide_scalars(base), min_size=order, max_size=order)))


@settings(SETTINGS, max_examples=10)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(wide_series(n, 2), wide_series(n, 3))))
def test_exact_sums_over_distinct_denominators(pair):
    f, g = pair
    for a, b in ((f, g), (g, f)):
        assert oracles.phi_moments_nc_sum(a, b) == reference_nc_sum(a, b)
        assert oracles.boxed_convolution(a, b) == reference_boxed_sum(a, b, False)
        assert oracles.phi_moments_via_linked_blocks(a, b, min(b.order, 6)) == reference_linked_sum(a, b, min(b.order, 6))
    n = min(f.order, 5)
    assert oracles.product_psi_cumulants(f, g, n) == reference_coupled_sum(f, f, g, g, n)


# -- approx table sums are today's loop, bit for bit ------------------------------


def loop_table_sum(table, families, mode):
    """The row-order loop that summed every table before exact sums went over integers."""
    acc = _zero(mode)
    previous = ()
    products = [_one(mode)]
    for factors, count in table:
        shared = 0
        for a, b in zip(previous, factors):
            if a != b:
                break
            shared += 1
        del products[shared + 1:]
        for slot, k in factors[shared:]:
            products.append(products[-1] * families[slot].coefficient(k))
        acc = acc + count * products[-1]
        previous = factors
    return acc


def test_approx_table_sums_are_the_row_order_loop_bit_for_bit():
    rng = random.Random(23)
    families = [
        TruncatedSeries.approx([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9)]) for _ in range(4)
    ]
    tables = [oracles._nc_table(n) for n in range(1, 9)]
    tables += [oracles._boxed_table(n, first) for n in range(1, 9) for first in (False, True)]
    tables += [oracles._linked_table(n) for n in range(1, 9)]
    tables += [oracles._coupled_table(n) for n in range(1, 7)]  # NC_0(2n) is enumerated up to 2n = 12
    for table in tables:
        got, want = oracles._table_sum(table, families, "approx"), loop_table_sum(table, families, "approx")
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# -- what a warm table saves -----------------------------------------------------


def test_a_warm_exact_sum_enumerates_nothing_and_builds_only_its_result(monkeypatch):
    t = TruncatedSeries.exact([ComplexRational(k + 1, -k) for k in range(8)])
    ct = TruncatedSeries.exact([ComplexRational(2 - k, k) for k in range(8)])
    f, g = (TruncatedSeries.exact([0] + list(s.coeffs[1:])) for s in (t, ct))
    runs = [
        (lambda: oracles.phi_moments_nc_sum(ct, t), 0),
        (lambda: oracles.phi_moments_via_linked_blocks(ct, t), 0),
        (lambda: oracles.boxed_convolution(f, g), 0),
        (lambda: oracles.product_psi_cumulants(f, g, 5), 1),
    ]
    wanted = [run() for run, _ in runs]

    def refuse(*args):
        raise AssertionError("a warm table enumerated again")

    for name in ("enumerate_nc", "enumerate_nc_0", "enumerate_ncl", "ncl_classify", "kreweras"):
        monkeypatch.setattr(oracles, name, refuse)
    built = []
    init = ComplexRational.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(ComplexRational, "__init__", counted)
    for (run, scalars), want in zip(runs, wanted):
        built.clear()
        assert run() == want
        assert len(built) == scalars


def test_product_cumulants_refuse_n_below_one():
    r = TruncatedSeries.exact([0, 1, 2])
    x = SimpleNamespace(cR=r, R=r)
    for n in (0, -1):
        with pytest.raises(ArgumentError, match=f"n = {n}"):
            oracles.product_psi_cumulants(r, r, n)
        with pytest.raises(ArgumentError, match=f"n = {n}"):
            oracles.product_phi_cumulants(x, x, n)
