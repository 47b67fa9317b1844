"""Multiplicative transforms of one- and two-state laws.

Everything here is a reparametrization of the moment data of a law whose
first moment is invertible.  Writing R for the psi-cumulant series and cR
for the phi-side cumulant series, the two workhorses are

    t  =  (R / z)  o  R-inverse        (compositional inverse),
    ct = (cR / z)  o  R-inverse,

both one order lower than the input moments.  Their value is that the
multiplicative convolution of laws turns into the coefficientwise product
of these series, which the test-suite checks against the partition-sum
route.  Moments are recovered through the fixed-point recurrences

    m(z) / z = t(m(z)) (1 + m(z)),
    M(z) / z = ct(m(z)) (1 + M(z)),

and, independently, as sums over linked non-crossing block families in
:mod:`oracles`, which serve as the brute-force check on the recurrences.

The remaining transforms are the boolean-style ones: eta = m/(1+m), its
shifted form b = eta/z, and the pair transform sigma = ct o (z/(1-z)),
which equals b-of-the-phi-part composed with the inverse of eta-of-the-
psi-part.  sigma is computed along both routes, and a disagreement raises
:class:`NumericalError` instead of returning.
"""
from __future__ import annotations

import functools

from .cumulants import (
    OneStateData,
    TwoStateData,
    cfree_cumulants_from_moments,
    free_cumulants_from_moments,
)
from .errors import ArgumentError, DomainError, NumericalError
from .series import TruncatedSeries, _one, _zero


def _vanishing_invertible(m, what):
    if m.coeffs[0]:
        raise ArgumentError(f"{what} must have a vanishing constant term")
    if m.order < 1 or not m.coeffs[1]:
        raise DomainError(f"{what} must have an invertible first coefficient")


def t_transform(m):
    """Shifted psi-cumulant series in the cumulant variable; order drops by 1."""
    _vanishing_invertible(m, "a psi-moment series")
    r = free_cumulants_from_moments(m)
    return r.shift_down().compose(r.invert_composition())


def ct_transform(M, psi):
    """Shifted phi-side cumulant series in the psi-cumulant variable."""
    m = psi.moments if isinstance(psi, OneStateData) else psi
    _vanishing_invertible(m, "a psi-moment series")
    cr = cfree_cumulants_from_moments(M, m)
    r = free_cumulants_from_moments(m)
    return cr.shift_down().compose(r.invert_composition())


def moments_from_t(t, n=None):
    """Rebuild psi-moments from t via m/z = t(m)(1+m).

    The right side at z^(n-1) only involves moments below n, so the
    coefficients peel off one at a time.  ``n`` moments are produced
    (default, and maximum, one more than the order of t).
    """
    k_max = t.order
    if n is None:
        n = k_max + 1
    if not 1 <= n <= k_max + 1:
        raise ArgumentError("the t coefficients determine moments 1..order+1")
    one = TruncatedSeries.constant(_one(t.mode), k_max, t.mode)
    m = [_zero(t.mode)] * (k_max + 2)
    for j in range(1, k_max + 2):
        partial = TruncatedSeries(m[: min(j, k_max + 1)], t.mode, k_max)
        m[j] = (t.compose(partial) * (one + partial)).coeffs[j - 1]
    return TruncatedSeries(m[: n + 1], t.mode)


def phi_moments_from_ct(ct, m, n=None):
    """Rebuild phi-moments from ct and the psi-moments, via M/z = ct(m)(1+M)."""
    k_max = ct.order
    if n is None:
        n = k_max + 1
    if not 1 <= n <= k_max + 1:
        raise ArgumentError("the ct coefficients determine moments 1..order+1")
    if m.order < k_max or m.mode != ct.mode:
        raise ArgumentError("psi-moments must reach the order of ct, same mode")
    if m.coeffs[0]:
        raise ArgumentError("a psi-moment series must have a vanishing constant term")
    base = ct.compose(m)
    one = TruncatedSeries.constant(_one(ct.mode), k_max, ct.mode)
    M = [_zero(ct.mode)] * (k_max + 2)
    for j in range(1, k_max + 2):
        partial = TruncatedSeries(M[: min(j, k_max + 1)], ct.mode, k_max)
        M[j] = (base * (one + partial)).coeffs[j - 1]
    return TruncatedSeries(M[: n + 1], ct.mode)


def eta(m):
    """The ratio m/(1+m); same order, vanishing constant term."""
    if m.coeffs[0]:
        raise ArgumentError("eta expects a series with a vanishing constant term")
    one = TruncatedSeries.constant(_one(m.mode), m.order, m.mode)
    return m * (one + m).reciprocal()


def b_series(M):
    """eta(M)/z -- the shifted boolean-style transform; order drops by 1."""
    return eta(M).shift_down()


def _geometric(order, mode):
    """z/(1-z) truncated: coefficients 0, 1, 1, ..., 1."""
    return TruncatedSeries([_zero(mode)] + [_one(mode)] * order, mode)


def sigma_series(M, m):
    """Pair transform of (phi-moments, psi-moments); order drops by 1.

    Computed as ct o (z/(1-z)) and, independently, as b(M) composed with
    the compositional inverse of eta(m).  The two must agree -- exactly in
    exact mode; in approx mode to 1e-8 times the largest coefficient
    modulus of either route (at least 1) -- and the second route is
    returned.
    """
    via_ct = ct_transform(M, m).compose(_geometric(M.order - 1, M.mode))
    via_b = b_series(M).compose(eta(m).invert_composition())
    if M.mode == "exact":
        if via_ct != via_b:
            raise NumericalError("sigma routes disagree in exact arithmetic")
        return via_b
    gap = max(abs(x - y) for x, y in zip(via_ct.coeffs, via_b.coeffs))
    scale = max(1.0, *(abs(c) for c in via_ct.coeffs + via_b.coeffs))
    if gap > 1e-8 * scale:
        raise NumericalError(
            f"sigma routes disagree: gap {gap:.3e} against coefficients up to {scale:.3e}"
        )
    return via_b


# -- bundled view --------------------------------------------------------------

class TransformBundle:
    """Every derived transform of one two-state law, computed lazily.

    ``m``/``M``/``R``/``cR``/``eta`` carry the moment-data order; the
    shifted series ``T``, ``cT``, ``B`` and ``Sigma`` sit one order below,
    since the top coefficient of a shifted composition is not determined
    by the data.  ``multiply`` is the multiplicative convolution of laws:
    both shifted cumulant series multiply coefficientwise and the moments
    are rebuilt from the product.
    """

    def __init__(self, data):
        if not isinstance(data, TwoStateData):
            raise ArgumentError("expected TwoStateData")
        _vanishing_invertible(data.psi.moments, "the psi-moment series")
        self.data = data

    @classmethod
    def from_moments(cls, M, m):
        return cls(TwoStateData.from_moments(M, m))

    @property
    def m(self):
        return self.data.psi.moments

    @property
    def M(self):
        return self.data.phi_moments

    @property
    def R(self):
        return self.data.psi.free_cumulants

    @property
    def cR(self):
        return self.data.cfree_cumulants

    @functools.cached_property
    def _r_inverse(self):
        return self.R.invert_composition()

    @functools.cached_property
    def T(self):
        return self.R.shift_down().compose(self._r_inverse)

    @functools.cached_property
    def cT(self):
        return self.cR.shift_down().compose(self._r_inverse)

    @functools.cached_property
    def eta(self):
        return eta(self.m)

    @functools.cached_property
    def B(self):
        return b_series(self.M)

    @functools.cached_property
    def Sigma(self):
        return sigma_series(self.M, self.m)

    @property
    def order(self):
        return self.data.order

    @property
    def mode(self):
        return self.data.mode

    def multiply(self, other):
        t = self.T * other.T
        ct = self.cT * other.cT
        m = moments_from_t(t)
        M = phi_moments_from_ct(ct, m)
        return TransformBundle.from_moments(M, m)

    def __repr__(self):
        return f"TransformBundle(order={self.order}, mode={self.mode!r})"
