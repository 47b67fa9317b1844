"""The four closed forms between moments and cumulants of a two-state law.

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
:mod:`oracles`; the test-suite insists the two routes agree.  Each function
takes bare series; the law holding both parametrisations at once is
:class:`transforms.TransformBundle`.
"""
from __future__ import annotations

from .errors import ArgumentError
from .series import TruncatedSeries, _one


def _check_vanishing(s, what):
    if s._nonzero(0):
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


def cfree_cumulants_from_moments(M, m):
    """The phi-side cumulant series cR = [M(1+m)/(1+M)] o w^-1."""
    _check_vanishing(M, "a moment series")
    _check_vanishing(m, "a moment series")
    if M.order != m.order or M.mode != m.mode:
        raise ArgumentError("phi and psi series must share order and mode")
    target = M * _one_plus(m) * _one_plus(M).reciprocal()
    return target.compose(_w(m).invert_composition())


def phi_moments_from_cfree_cumulants(cr, m):
    """Invert :func:`cfree_cumulants_from_moments`: M = c/(1+m-c), c = cR o w."""
    _check_vanishing(cr, "a cumulant series")
    if cr.order != m.order or cr.mode != m.mode:
        raise ArgumentError("cumulant and psi series must share order and mode")
    c = cr.compose(_w(m))
    return c * (_one_plus(m) - c).reciprocal()
