"""Multiplicative transforms of one- and two-state laws.

Everything here is a reparametrization of the moment data of a law.
Writing m for the psi-moments, M for the phi-moments and w = z (1 + m),
the one-state (psi) cumulants r_1, r_2, ... and the two-state (phi-side)
cumulants cr_1, cr_2, ... are tied to the moments by the functional
identities

    R(z (1 + m(z))) = m(z),
    cR(z (1 + m(z))) (1 + M(z)) = M(z) (1 + m(z)).

Each direction is a closed form over one series reversion:

    R  = m o w^-1,                        m = R o (u / (1 + R(u)))^-1,
    cR = [M (1 + m) / (1 + M)] o w^-1,    M = c / (1 + m - c),  c = cR o w,

and R and cR of one law share the reversion w^-1.  The equivalent
summation formulas over non-crossing partitions -- moments as
partition-indexed cumulant products, with the phi-side reading exterior
blocks in the phi family and interior blocks in the psi family -- live in
:mod:`oracles`; the test-suite insists the two routes agree.

When the first psi-moment is invertible, with b(M) = M / (z (1 + M)), the
two workhorses are closed forms over one compositional inverse m^-1:

    t  = b(m) o m^-1  =  u / ((1 + u) m^-1(u)),
    ct = b(M) o m^-1,

both one order lower than the input moments.  (In cumulant terms they are
(R/z) o R^-1 and (cR/z) o R^-1.)  When M equals m, ct is t: the c-free
product of pairs (nu, nu) is the free product, and a bundle returns its T
as cT without a second composition.  Exact mode computes t by the right-hand
side, one reciprocal of (1 + u) m^-1(u)/u, with no eta(m) and no
composition; ct reuses the same reversion.  Approx mode keeps the
composition b(m) o m^-1: in floats the closed form moves rounding enough to
flip ill-conditioned results across their checks (over the perfbench
approx_highorder pools of seeds 1700-1719, 4,560 operations, it changed
the outcome of 29 and passes fell from 4,069 to 4,064), so it waits for a
precision budget.  Their value is that the multiplicative
convolution of laws turns into the coefficientwise product of these
series, which the test-suite checks against the partition-sum route.
The products in :mod:`measures` take subordination in both modes, with no
reversion and no m^-1, which needs m_1 invertible and in doubles loses
them.  This T route stays for bundles and, through ``multiply`` and
``power``, as the independent check of those products and of the limit
rows, which take Sigma_1^n.  Moments come back in closed form,

    m = (u / (t(u) (1 + u)))^-1,
    M = z c / (1 - z c),   c = ct o m,

and, independently, as sums over linked non-crossing block families in
:mod:`oracles`, which serve as the brute-force check on the closed forms.

The remaining transforms are the boolean-style ones: eta = m/(1+m), its
shifted form b = eta/z, and the pair transform sigma = ct o (z/(1-z)),
which equals b-of-the-phi-part composed with the inverse of eta-of-the-
psi-part.  sigma is computed along both routes, and a disagreement raises
:class:`NumericalError` instead of returning.

:class:`TransformBundle` is the one law object: it holds the moments
(M, m) of a two-state law, built ``from_moments`` or ``from_cumulants``,
and derives every parametrisation above from them on first read.
``free_cumulants_from_moments``, ``cfree_cumulants_from_moments``,
``t_transform``, ``ct_transform`` and ``sigma_series`` each read one field
of a bundle.  The inverse forms, from cumulants or from t and ct back to
moments, are module functions that ``from_cumulants``, ``multiply`` and
``power`` call.
"""
from __future__ import annotations

import functools

from .errors import ArgumentError, NumericalError, UnsupportedDomainError
from .series import TruncatedSeries


def _check_vanishing(s, what):
    if s._nonzero(0):
        raise ArgumentError(f"{what} must have a vanishing constant term")


def _one_plus(s):
    return TruncatedSeries.constant(1, s.order, s.mode) + s


def _w(m):
    """The cumulant argument z (1 + m)."""
    return TruncatedSeries.identity(m.order, m.mode) * _one_plus(m)


def free_cumulants_from_moments(m):
    """The cumulant series R = m o w^-1, which solves R(w) = m for w = z(1+m)."""
    return TransformBundle(m, m).R


def moments_from_free_cumulants(r):
    """Invert :func:`free_cumulants_from_moments`: m = R o (u/(1+R(u)))^-1."""
    _check_vanishing(r, "a cumulant series")
    u_over = TruncatedSeries.identity(r.order, r.mode) * _one_plus(r).reciprocal()
    return r.compose(u_over.invert_composition())


def cfree_cumulants_from_moments(M, m):
    """The phi-side cumulant series cR = [M(1+m)/(1+M)] o w^-1."""
    return TransformBundle(M, m).cR


def phi_moments_from_cfree_cumulants(cr, m):
    """Invert :func:`cfree_cumulants_from_moments`: M = c/(1+m-c), c = cR o w."""
    _check_vanishing(cr, "a cumulant series")
    if cr.order != m.order or cr.mode != m.mode:
        raise ArgumentError("cumulant and psi series must share order and mode")
    _check_vanishing(m, "a psi-moment series")
    c = cr.compose(_w(m))
    return c * (_one_plus(m) - c).reciprocal()


def t_transform(m):
    """b(m) o m^-1, the shifted psi-cumulant series; order drops by 1."""
    return TransformBundle(m, m).T


def ct_transform(M, m):
    """b(M) o m^-1, the shifted phi-side cumulant series; order drops by 1."""
    return TransformBundle(M, m).cT


def moments_from_t(t):
    """Rebuild psi-moments 1..order+1 from t as the inverse of u/(t(u)(1+u)).

    A t-series with t_0 = 0 forces m_1 = 0 and, through m/z = t(m)(1+m),
    every later moment to zero as well.
    """
    if not t._nonzero(0):
        return TruncatedSeries.zero(t.order + 1, t.mode)
    t_one_plus_u = t + t.shift_up().truncate(t.order)
    return t_one_plus_u.reciprocal().shift_up().invert_composition()


def phi_moments_from_ct(ct, m):
    """Rebuild phi-moments 1..order+1 from ct and the psi-moments as zc/(1-zc), c = ct o m."""
    if m.order < ct.order or m.mode != ct.mode:
        raise ArgumentError("psi-moments must reach the order of ct, same mode")
    _check_vanishing(m, "a psi-moment series")
    return _moments_from_eta(ct.compose(m).shift_up())


def eta(m):
    """The ratio m/(1+m); same order, vanishing constant term."""
    _check_vanishing(m, "the argument of eta")
    return m * _one_plus(m).reciprocal()


def _moments_from_eta(e):
    """Invert :func:`eta`: the moment series e/(1-e)."""
    return e * (TruncatedSeries.constant(1, e.order, e.mode) - e).reciprocal()


def b_series(M):
    """eta(M)/z -- the shifted boolean-style transform; order drops by 1."""
    return eta(M).shift_down()


def sigma_series(M, m):
    """Pair transform of (phi-moments, psi-moments); order drops by 1.

    See :attr:`TransformBundle.Sigma` for its two routes and their gate.
    """
    return TransformBundle(M, m).Sigma


# -- bundled view --------------------------------------------------------------

class TransformBundle:
    """Every derived transform of one two-state law, computed lazily.

    A bundle holds the phi-moments ``M`` and psi-moments ``m``; a law
    built from its cumulants keeps them as ``cR`` and ``R``.  ``R``,
    ``cR`` and ``eta`` carry the moment-data order; the shifted series
    ``T``, ``cT``, ``B`` and ``Sigma`` sit one order below, since the top
    coefficient of a shifted composition is not determined by the data.
    ``T``, ``cT`` and ``Sigma`` share one reversion of ``m`` (``Sigma`` adds
    one of ``eta``), and ``R`` and ``cR`` share one of z(1 + m).  A
    vanishing first psi-moment is accepted, but then ``T``, ``cT`` and
    ``Sigma`` raise :class:`UnsupportedDomainError`.
    ``multiply`` is the multiplicative convolution of laws: both shifted
    cumulant series multiply coefficientwise and the moments are rebuilt
    from the product.  ``power`` is the n-fold product of a law with
    itself, by raising both series to the n-th power.
    """

    def __init__(self, M, m):
        if M.order != m.order or M.mode != m.mode:
            raise ArgumentError("phi and psi series must share order and mode")
        _check_vanishing(m, "the psi-moment series")
        _check_vanishing(M, "the phi-moment series")
        self.M = M
        self.m = m

    @classmethod
    def from_moments(cls, M, m):
        return cls(M, m)

    @classmethod
    def from_cumulants(cls, cR, R):
        """The law with phi-side cumulants cR and psi-cumulants R, which it keeps."""
        m = moments_from_free_cumulants(R)
        bundle = cls(phi_moments_from_cfree_cumulants(cR, m), m)
        bundle.R, bundle.cR = R, cR
        return bundle

    @functools.cached_property
    def _w_inverse(self):
        """The one reversion of w = z(1 + m), shared by ``R`` and ``cR``."""
        return _w(self.m).invert_composition()

    @functools.cached_property
    def R(self):
        """m o w^-1."""
        return self.m.compose(self._w_inverse)

    @functools.cached_property
    def cR(self):
        """[M (1 + m) / (1 + M)] o w^-1."""
        M, m = self.M, self.m
        return (M * _one_plus(m) * _one_plus(M).reciprocal()).compose(self._w_inverse)

    @functools.cached_property
    def _m_inverse(self):
        """The one reversion of m, which needs m_1 invertible.

        In approx mode m_1 counts as zero up to 1e-12 times the largest
        moment modulus (at least 1).
        """
        m = self.m
        if m.mode == "approx":
            invertible = m.order >= 1 and not abs(m.coeffs[1]) <= 1e-12 * max(1.0, *map(abs, m.coeffs))
        else:
            invertible = m.order >= 1 and m._nonzero(1)
        if not invertible:
            raise UnsupportedDomainError("the psi-moment series needs an invertible first moment")
        return m.invert_composition()

    @functools.cached_property
    def T(self):
        """u / ((1 + u) m^-1(u)) in exact mode; eta(m)/z o m^-1 in approx mode."""
        if self.mode == "approx":  # the closed form moves rounding; see the module docstring
            return self.eta.shift_down().compose(self._m_inverse)
        g = self._m_inverse.shift_down()
        return (g + g.shift_up().truncate(g.order)).reciprocal()

    @functools.cached_property
    def cT(self):
        """b(M) o m^-1, which is T when M equals m (a self-paired law).

        Approx == counts -0.0 equal to 0.0, but the sign of a zero cannot
        reach b(M): 1 + M and every product's sums start from +0.0.
        """
        if self.M == self.m:
            return self.T
        return self.B.compose(self._m_inverse)

    @functools.cached_property
    def eta(self):
        return eta(self.m)

    @functools.cached_property
    def B(self):
        return b_series(self.M)

    @functools.cached_property
    def Sigma(self):
        """cT o (z/(1-z)), checked against B composed with the inverse of eta.

        The two routes must agree -- exactly in exact mode; in approx mode
        to 1e-8 times the largest coefficient modulus of either route (at
        least 1) -- and the second route is returned.
        """
        via_ct = self.cT.binomial_transform()
        via_b = self.B.compose(self.eta.invert_composition())
        if self.mode == "exact":
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

    @property
    def order(self):
        return self.m.order

    @property
    def mode(self):
        return self.m.mode

    def multiply(self, other):
        return self._from_transforms(self.T * other.T, self.cT * other.cT)

    def power(self, n):
        """The n-fold product of this law with itself, for n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise ArgumentError("power takes a positive integer")
        return self._from_transforms(self.T.pow_int(n), self.cT.pow_int(n))

    @staticmethod
    def _from_transforms(t, ct):
        m = moments_from_t(t)
        return TransformBundle(phi_moments_from_ct(ct, m), m)

    def __repr__(self):
        return f"TransformBundle(order={self.order}, mode={self.mode!r})"
