"""Moment/cumulant conversions for one- and two-state laws.

The one-state (psi) cumulants r_1, r_2, ... of a moment sequence m_1, m_2,
... are tied together by the functional identity

    R(z (1 + m(z))) = m(z),

and the two-state (phi-side) cumulants cr_1, cr_2, ... by

    cR(z (1 + m(z))) (1 + M(z)) = M(z) (1 + m(z)),

where m collects the psi-moments and M the phi-moments.  With
w = z (1 + m), each direction is a closed form over one series reversion:

    R  = m o w^-1,                        m = R o (u / (1 + R(u)))^-1,
    cR = [M (1 + m) / (1 + M)] o w^-1,    M = c / (1 + m - c),  c = cR o w.

The equivalent summation formulas over non-crossing partitions -- moments
as partition-indexed cumulant products, with the phi-side reading exterior
blocks in the phi family and interior blocks in the psi family -- live in
:mod:`oracles`; the test-suite insists the two routes agree.
"""
from __future__ import annotations

import functools

from .errors import ArgumentError
from .series import TruncatedSeries, _one


def _moment_series(x):
    if isinstance(x, TruncatedSeries):
        return x
    if isinstance(x, OneStateData):
        return x.moments
    raise ArgumentError("expected a moment series or OneStateData")


def _check_vanishing(s, what):
    if s.coeffs[0]:
        raise ArgumentError(f"{what} must have a vanishing constant term")


def _one_plus(s):
    return TruncatedSeries.constant(_one(s.mode), s.order, s.mode) + s


def _w(m):
    """The cumulant argument z (1 + m)."""
    return TruncatedSeries.identity(m.order, m.mode) * _one_plus(m)


def free_cumulants_from_moments(m):
    """The cumulant series R = m o w^-1, which solves R(w) = m for w = z(1+m)."""
    _check_vanishing(m, "a moment series")
    return m.compose(_w(m).invert_composition())


def moments_from_free_cumulants(r):
    """Invert :func:`free_cumulants_from_moments`: m = R o (u/(1+R(u)))^-1."""
    _check_vanishing(r, "a cumulant series")
    u_over = TruncatedSeries.identity(r.order, r.mode) * _one_plus(r).reciprocal()
    return r.compose(u_over.invert_composition())


def cfree_cumulants_from_moments(M, psi):
    """The phi-side cumulant series cR = [M(1+m)/(1+M)] o w^-1."""
    m = _moment_series(psi)
    _check_vanishing(M, "a moment series")
    _check_vanishing(m, "a moment series")
    if M.order != m.order or M.mode != m.mode:
        raise ArgumentError("phi and psi series must share order and mode")
    target = M * _one_plus(m) * _one_plus(M).reciprocal()
    return target.compose(_w(m).invert_composition())


def phi_moments_from_cfree_cumulants(cr, psi):
    """Invert :func:`cfree_cumulants_from_moments`: M = c/(1+m-c), c = cR o w."""
    m = _moment_series(psi)
    _check_vanishing(cr, "a cumulant series")
    if cr.order != m.order or cr.mode != m.mode:
        raise ArgumentError("cumulant and psi series must share order and mode")
    c = cr.compose(_w(m))
    return c * (_one_plus(m) - c).reciprocal()


# -- bundled laws -------------------------------------------------------------

class OneStateData:
    """A single law kept as consistent moment and free-cumulant series.

    A law built from its moments computes the cumulants on first read.
    """

    def __init__(self, moments, free_cumulants=None):
        self.moments = moments
        if free_cumulants is not None:
            if moments.order != free_cumulants.order or moments.mode != free_cumulants.mode:
                raise ArgumentError("moments and cumulants must share order and mode")
            self.free_cumulants = free_cumulants

    @classmethod
    def from_moments(cls, m):
        _check_vanishing(m, "a moment series")
        return cls(m)

    @classmethod
    def from_cumulants(cls, r):
        return cls(moments_from_free_cumulants(r), r)

    @functools.cached_property
    def free_cumulants(self):
        return free_cumulants_from_moments(self.moments)

    @property
    def order(self):
        return self.moments.order

    @property
    def mode(self):
        return self.moments.mode

    def cumulant(self, k):
        return self.free_cumulants.coefficient(k)

    def __repr__(self):
        return f"OneStateData(order={self.order}, mode={self.mode!r})"


class TwoStateData:
    """A law under two states: psi data plus phi moments and phi-side cumulants.

    A law built from its moments computes the phi-side cumulants on first
    read.
    """

    def __init__(self, psi, phi_moments, cfree_cumulants=None):
        if phi_moments.order != psi.order or phi_moments.mode != psi.mode:
            raise ArgumentError("two-state series must share order and mode")
        self.psi = psi
        self.phi_moments = phi_moments
        if cfree_cumulants is not None:
            if cfree_cumulants.order != psi.order or cfree_cumulants.mode != psi.mode:
                raise ArgumentError("two-state series must share order and mode")
            self.cfree_cumulants = cfree_cumulants

    @classmethod
    def from_moments(cls, M, m):
        _check_vanishing(M, "a moment series")
        return cls(OneStateData.from_moments(m), M)

    @classmethod
    def from_cumulants(cls, cr, r):
        psi = OneStateData.from_cumulants(r)
        return cls(psi, phi_moments_from_cfree_cumulants(cr, psi), cr)

    @functools.cached_property
    def cfree_cumulants(self):
        return cfree_cumulants_from_moments(self.phi_moments, self.psi)

    @property
    def order(self):
        return self.psi.order

    @property
    def mode(self):
        return self.psi.mode

    def cfree_cumulant(self, k):
        return self.cfree_cumulants.coefficient(k)

    def __repr__(self):
        return f"TwoStateData(order={self.order}, mode={self.mode!r})"

