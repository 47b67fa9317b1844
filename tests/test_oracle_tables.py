"""The oracle layer's block-size tables against per-partition sums.

Each reference below is the loop that summed one coefficient product per
partition before the sums went over tables.  On random exact series the two
routes must agree under ``==``; in approx mode count-times-product rounds
differently from repeated addition, so they agree to 1e-12 relative to the
sum of the terms' moduli.
"""
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


# -- what a warm table saves -----------------------------------------------------


def test_a_warm_linked_sum_enumerates_nothing_and_builds_few_scalars(monkeypatch):
    t = TruncatedSeries.exact([ComplexRational(k + 1, -k) for k in range(8)])
    ct = TruncatedSeries.exact([ComplexRational(2 - k, k) for k in range(8)])
    want = oracles.phi_moments_via_linked_blocks(ct, t)

    def refuse(*args):
        raise AssertionError("a warm table enumerated again")

    monkeypatch.setattr(oracles, "enumerate_ncl", refuse)
    monkeypatch.setattr(oracles, "ncl_classify", refuse)
    built = []
    init = ComplexRational.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(ComplexRational, "__init__", counted)
    assert oracles.phi_moments_via_linked_blocks(ct, t) == want
    rows = [row for n in range(1, 9) for row in oracles._linked_table(n)]
    assert len(built) <= 4 * sum(len(factors) + 2 for factors, _ in rows)


def test_product_cumulants_refuse_n_below_one():
    r = TruncatedSeries.exact([0, 1, 2])
    x = SimpleNamespace(cR=r, R=r)
    for n in (0, -1):
        with pytest.raises(ArgumentError, match=f"n = {n}"):
            oracles.product_psi_cumulants(r, r, n)
        with pytest.raises(ArgumentError, match=f"n = {n}"):
            oracles.product_phi_cumulants(x, x, n)
