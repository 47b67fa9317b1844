"""Moment/cumulant conversions for one- and two-state laws.

The one-state (psi) cumulants r_1, r_2, ... of a moment sequence m_1, m_2,
... are tied together by the functional identity

    R(z (1 + m(z))) = m(z),

and the two-state (phi-side) cumulants cr_1, cr_2, ... by

    cR(z (1 + m(z))) (1 + M(z)) = M(z) (1 + m(z)),

where m collects the psi-moments and M the phi-moments.  Both identities
are triangular in the unknowns, so each direction is a short recurrence on
truncated series.  The equivalent summation formulas over non-crossing
partitions -- moments as partition-indexed cumulant products, with the
phi-side reading exterior blocks in the phi family and interior blocks in
the psi family -- live in :mod:`oracles`; the test-suite insists the two
routes agree.
"""
from __future__ import annotations

from .errors import ArgumentError
from .series import TruncatedSeries, _one, _zero


def _moment_series(x):
    if isinstance(x, TruncatedSeries):
        return x
    if isinstance(x, OneStateData):
        return x.moments
    raise ArgumentError("expected a moment series or OneStateData")


def _check_vanishing(s, what):
    if s.coeffs[0]:
        raise ArgumentError(f"{what} must have a vanishing constant term")


def free_cumulants_from_moments(m):
    """Solve R(z(1+m)) = m for the cumulant series R, order by order."""
    _check_vanishing(m, "a moment series")
    n = m.order
    w = TruncatedSeries.identity(n, m.mode) * (
        TruncatedSeries.constant(_one(m.mode), n, m.mode) + m
    )
    r = [_zero(m.mode)] * (n + 1)
    residue = m
    wpow = TruncatedSeries.constant(_one(m.mode), n, m.mode)
    for k in range(1, n + 1):
        wpow = wpow * w
        r[k] = residue.coeffs[k]
        residue = residue - wpow.scale(r[k])
    return TruncatedSeries(r, m.mode)


def moments_from_free_cumulants(r):
    """Invert :func:`free_cumulants_from_moments`: rebuild m_1..m_N from R."""
    _check_vanishing(r, "a cumulant series")
    n = r.order
    m = [_zero(r.mode)] * (n + 1)
    for k in range(1, n + 1):
        partial = TruncatedSeries(m[:k], r.mode, n)
        w = TruncatedSeries.identity(n, r.mode) * (
            TruncatedSeries.constant(_one(r.mode), n, r.mode) + partial
        )
        m[k] = r.compose(w).coeffs[k]
    return TruncatedSeries(m, r.mode)


def cfree_cumulants_from_moments(M, psi):
    """Solve cR(z(1+m))(1+M) = M(1+m) for the phi-side cumulant series."""
    m = _moment_series(psi)
    _check_vanishing(M, "a moment series")
    _check_vanishing(m, "a moment series")
    if M.order != m.order or M.mode != m.mode:
        raise ArgumentError("phi and psi series must share order and mode")
    n = m.order
    one = TruncatedSeries.constant(_one(m.mode), n, m.mode)
    w = TruncatedSeries.identity(n, m.mode) * (one + m)
    target = M * (one + m)
    residue = target
    cr = [_zero(m.mode)] * (n + 1)
    wpow = one
    one_plus_M = one + M
    for k in range(1, n + 1):
        wpow = wpow * w
        cr[k] = residue.coeffs[k]
        residue = residue - (wpow * one_plus_M).scale(cr[k])
    return TruncatedSeries(cr, m.mode)


def phi_moments_from_cfree_cumulants(cr, psi):
    """Invert :func:`cfree_cumulants_from_moments`: rebuild M_1..M_N."""
    m = _moment_series(psi)
    _check_vanishing(cr, "a cumulant series")
    if cr.order != m.order or cr.mode != m.mode:
        raise ArgumentError("cumulant and psi series must share order and mode")
    n = m.order
    one = TruncatedSeries.constant(_one(m.mode), n, m.mode)
    w = TruncatedSeries.identity(n, m.mode) * (one + m)
    crw = cr.compose(w)
    M = [_zero(m.mode)] * (n + 1)
    for k in range(1, n + 1):
        partial = TruncatedSeries(M[:k], m.mode, n)
        val = (crw * (one + partial)).coeffs[k]
        for j in range(1, k):
            val = val - M[j] * m.coeffs[k - j]
        M[k] = val
    return TruncatedSeries(M, m.mode)


# -- bundled laws -------------------------------------------------------------

class OneStateData:
    """A single law kept as consistent moment and free-cumulant series."""

    def __init__(self, moments, free_cumulants):
        if moments.order != free_cumulants.order or moments.mode != free_cumulants.mode:
            raise ArgumentError("moments and cumulants must share order and mode")
        self.moments = moments
        self.free_cumulants = free_cumulants

    @classmethod
    def from_moments(cls, m):
        return cls(m, free_cumulants_from_moments(m))

    @classmethod
    def from_cumulants(cls, r):
        return cls(moments_from_free_cumulants(r), r)

    @property
    def order(self):
        return self.moments.order

    @property
    def mode(self):
        return self.moments.mode

    def moment(self, k):
        return self.moments.coefficient(k)

    def cumulant(self, k):
        return self.free_cumulants.coefficient(k)

    def __repr__(self):
        return f"OneStateData(order={self.order}, mode={self.mode!r})"


class TwoStateData:
    """A law under two states: psi data plus phi moments and phi-side cumulants."""

    def __init__(self, psi, phi_moments, cfree_cumulants):
        if (
            phi_moments.order != psi.order
            or cfree_cumulants.order != psi.order
            or phi_moments.mode != psi.mode
            or cfree_cumulants.mode != psi.mode
        ):
            raise ArgumentError("two-state series must share order and mode")
        self.psi = psi
        self.phi_moments = phi_moments
        self.cfree_cumulants = cfree_cumulants

    @classmethod
    def from_moments(cls, M, m):
        psi = OneStateData.from_moments(m)
        return cls(psi, M, cfree_cumulants_from_moments(M, psi))

    @classmethod
    def from_cumulants(cls, cr, r):
        psi = OneStateData.from_cumulants(r)
        return cls(psi, phi_moments_from_cfree_cumulants(cr, psi), cr)

    @property
    def order(self):
        return self.psi.order

    @property
    def mode(self):
        return self.psi.mode

    def phi_moment(self, k):
        return self.phi_moments.coefficient(k)

    def cfree_cumulant(self, k):
        return self.cfree_cumulants.coefficient(k)

    def __repr__(self):
        return f"TwoStateData(order={self.order}, mode={self.mode!r})"

