"""Laws on the unit circle and their multiplicative convolutions.

A law enters every computation through its moment sequence, so the measure
types are thin: finitely many atoms at rational turns, the uniform law, the
Poisson kernel law with parameter alpha, or a bare moment series: one that
a caller stored, or the output of a convolution, kept as it was computed.
Atoms keep exact rational angles.  Laws with atoms at quarter turns only
evaluate exactly: their moments are 4-periodic, and they are written
directly as integer numerators over the lcm of the weights' denominators.
Everything else evaluates in double precision.

Three convolutions act at this level.  The boolean one multiplies b-series,
the free multiplicative one multiplies t-series, and the pair-level one
multiplies t- and ct-series simultaneously.  Both modes compute the two
products by subordination (Biane; Belinschi-Bercovici): Newton's iteration
solves for the two subordination functions, self-maps of the disk, so no
series is reverted and no first moment needs to be invertible.  The T
route of :class:`TransformBundle` passes through m^-1, whose coefficients
grow like |1/m_1|^k; in doubles it lost products from order 24 or so on,
and it stays as the independent check of the products.  The infinitely
divisible laws are parametrized by a unit scalar gamma and a finite
positive atomic measure sigma through exponentials of the circular kernel
(1 + zeta z)/(1 - zeta z); the same generators drive the pair semigroup and
the triangular-array limit experiment.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ArgumentError, DomainError, NumericalError, UnsupportedDomainError
from .series import (
    ComplexRational,
    TruncatedSeries,
    _coerce,
    _json_field,
    _json_float,
    _json_fraction,
    _json_pair,
)
from .transforms import TransformBundle, _moments_from_eta, b_series, eta

_MOMENT_SLACK = 1e-7  # double-precision moments of a law may exceed 1 by this much


def _as_complex(value):
    if isinstance(value, ComplexRational):
        return value.to_complex()
    return complex(value)


def _json_double(value, what):
    """A JSON number as a double: a float as it is, anything else through ``_json_float``."""
    return value if type(value) is float else _json_float(value, what)


def _json_scalar(value, what):
    """A JSON [re, im] pair: exact if either part is a fraction string, a complex double otherwise."""
    re, im = _json_pair(value, what)
    if isinstance(re, str) or isinstance(im, str):
        return ComplexRational(_json_fraction(re, what), _json_fraction(im, what))
    return complex(_json_double(re, what), _json_double(im, what))


def _unit(turn):
    """The point exp(2 pi i turn) in double precision."""
    return cmath.exp(1j * math.tau * float(turn))


class CircleMeasure:
    """A law on the unit circle, known through its moments."""

    __slots__ = ("kind", "atoms", "alpha", "series")

    def __init__(self, kind, atoms=None, alpha=None, series=None):
        self.kind = kind
        self.atoms = atoms
        self.alpha = alpha
        self.series = series  # the moments kind: its moment series, with constant term 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def atomic(cls, atoms, probability=True):
        """Finitely many atoms given as (turns, weight) pairs.

        Angles are stored as exact rational turns reduced mod 1; equal
        angles merge and zero weights drop.  With ``probability`` the
        weights must sum to 1; without it any nonnegative weights are
        allowed (the unnormalized generator measures).
        """
        merged = {}
        for turn, weight in atoms:
            turn = Fraction(turn) % 1
            weight = Fraction(weight)
            if weight < 0:
                raise ArgumentError("atom weights must be nonnegative")
            merged[turn] = merged.get(turn, Fraction(0)) + weight
        cleaned = tuple(sorted((t, w) for t, w in merged.items() if w))
        if probability and sum(w for _, w in cleaned) != 1:
            raise ArgumentError("atom weights of a law must sum to 1")
        return cls("atomic", atoms=cleaned)

    @classmethod
    def point_mass(cls, turns):
        return cls.atomic([(turns, 1)])

    @classmethod
    def haar(cls):
        return cls("haar")

    @classmethod
    def poisson(cls, alpha):
        """The Poisson kernel law with moments alpha^k; exact when alpha is a ComplexRational."""
        if isinstance(alpha, ComplexRational):
            inside = alpha.re * alpha.re + alpha.im * alpha.im < 1
        else:
            inside = abs(_as_complex(alpha)) < 1
        if not inside:
            raise ArgumentError("the kernel parameter needs |alpha| < 1")
        return cls("poisson", alpha=alpha)

    @classmethod
    def moment_seq(cls, values):
        """The law with moments 1..len(values), exact if every value is a ComplexRational."""
        vals = tuple(values)
        for v in vals:
            try:
                bounded = abs(_as_complex(v)) <= 1 + _MOMENT_SLACK
            except OverflowError:  # an exact moment beyond the range of a double
                bounded = False
            if not bounded:
                raise ArgumentError("moments of a law on the circle are bounded by 1")
        mode = "exact" if all(isinstance(v, ComplexRational) for v in vals) else "approx"
        return cls("moments", series=TruncatedSeries([0, *vals], mode))

    # -- basics --------------------------------------------------------------

    def supports_exact(self):
        if self.kind == "atomic":
            return all(turn.denominator in (1, 2, 4) for turn, _ in self.atoms)
        if self.kind == "haar":
            return True
        if self.kind == "poisson":
            return isinstance(self.alpha, ComplexRational)
        return self.series.mode == "exact"

    def moment_series(self, order, mode=None):
        """Moments 1..order as a truncated series with vanishing constant."""
        if order < 1:
            raise ArgumentError("at least one moment must be requested")
        if mode is None:
            mode = "exact" if self.supports_exact() else "approx"
        if mode == "exact" and not self.supports_exact():
            raise DomainError("this law's data is not exactly representable")
        if self.kind == "haar":
            return TruncatedSeries.zero(order, mode)
        if self.kind == "atomic" and mode == "exact":
            return self._quarter_turn_moments(order)
        if self.kind == "moments":
            if self.series.order < order:
                raise ArgumentError("the stored moment list is shorter than the order")
            out = self.series.truncate(order)
            return out.to_approx() if mode == "approx" else out
        coeffs = [_coerce(0, mode)]
        if self.kind == "atomic":
            state = [(_coerce(w, mode), _unit(t)) for t, w in self.atoms]
            running = [unit for _, unit in state]
            for _ in range(order):
                total = _coerce(0, mode)
                for (weight, unit), power in zip(state, running):
                    total = total + weight * power
                coeffs.append(total)
                running = [p * unit for (_, unit), p in zip(state, running)]
        else:
            alpha = _coerce(self.alpha, mode)
            power = _coerce(1, mode)
            for _ in range(order):
                power = power * alpha
                coeffs.append(power)
        return TruncatedSeries(coeffs, mode)

    def _quarter_turn_moments(self, order):
        """Exact moments 1..order of atoms at quarter turns, written as integers.

        An atom at q quarter turns with weight w adds w i^(qk) to m_k, so the
        moments repeat with period 4.  Each atom adds the numerator of its
        weight over the lcm of the weights' denominators, with a sign, to the
        real or the imaginary list.
        """
        den = math.lcm(*(w.denominator for _, w in self.atoms))
        period = ([0] * 4, [0] * 4)  # real and imaginary numerators of m_k by k mod 4
        for turn, weight in self.atoms:
            num = weight.numerator * (den // weight.denominator)
            for k in range(4):
                e = int(4 * turn) * k % 4  # m_k gains num * i^e
                period[e % 2][k] += num if e < 2 else -num
        re, im = ([0] + [part[k % 4] for k in range(1, order + 1)] for part in period)
        return TruncatedSeries._from_ints(re, im, den)

    def __eq__(self, other):
        if not isinstance(other, CircleMeasure):
            return NotImplemented
        return (self.kind, self.atoms, self.alpha, self.series) == (
            other.kind,
            other.atoms,
            other.alpha,
            other.series,
        )

    def __repr__(self):
        payload = {
            "atomic": lambda: f"atoms={list(self.atoms)!r}",
            "haar": lambda: "",
            "poisson": lambda: f"alpha={self.alpha!r}",
            "moments": lambda: f"series={self.series!r}",
        }[self.kind]()
        return f"CircleMeasure({self.kind}{', ' + payload if payload else ''})"

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.kind == "atomic":
            return {
                "type": "atomic",
                "atoms": [
                    {"turns": str(t), "weight": str(w)} for t, w in self.atoms
                ],
            }
        if self.kind == "haar":
            return {"type": "haar"}
        if self.kind == "poisson":
            alpha = self.alpha
            if isinstance(alpha, ComplexRational):
                return {"type": "poisson", "alpha": [str(alpha.re), str(alpha.im)]}
            alpha = _as_complex(alpha)
            return {"type": "poisson", "alpha": [alpha.real, alpha.imag]}
        return {"type": "moments", "values": self.series.to_json()["coeffs"][1:]}

    @classmethod
    def from_json(cls, data, probability=True):
        """The law ``to_json`` wrote; a malformed form raises :class:`ArgumentError` naming its field.

        A float moment or kernel parameter passes as it is, NaN and inf
        included, and the law's own bound refuses it.
        """
        kind = _json_field(data, "type", "string", "a measure")
        if kind == "atomic":
            atoms = []
            for atom in _json_field(data, "atoms", "list", "an atomic measure"):
                if not isinstance(atom, dict) or not {"turns", "weight"} <= atom.keys():
                    raise ArgumentError(f"an atom in JSON is an object with the keys turns and weight, not {atom!r}")
                atoms.append((_json_fraction(atom["turns"], "atom turns"), _json_fraction(atom["weight"], "atom weight")))
            return cls.atomic(atoms, probability=probability)
        if kind == "haar":
            return cls.haar()
        if kind == "poisson":
            return cls.poisson(_json_scalar(_json_field(data, "alpha", "list", "a Poisson law"), "the kernel parameter"))
        if kind == "moments":
            values = _json_field(data, "values", "list", "a moment law")
            return cls.moment_seq([_json_scalar(value, "a moment") for value in values])
        raise ArgumentError(f"unknown measure type {kind!r}")


class MeasurePair:
    """A pair of laws: mu observed by the phi-state, nu by the psi-state."""

    __slots__ = ("mu", "nu")

    def __init__(self, mu, nu):
        self.mu = mu
        self.nu = nu

    def __repr__(self):
        return f"MeasurePair(mu={self.mu!r}, nu={self.nu!r})"


class IdGenerator:
    """A unit rotation gamma and a finite positive atomic measure sigma.

    Each such pair generates an infinitely divisible law for the boolean and
    for the free multiplicative convolution, and through them the pair-level
    semigroups.
    """

    __slots__ = ("gamma", "sigma")

    def __init__(self, gamma, sigma=None):
        if not abs(abs(_as_complex(gamma)) - 1) <= 1e-9:
            raise ArgumentError("gamma must sit on the unit circle")
        if sigma is None:
            sigma = CircleMeasure.atomic([], probability=False)
        if sigma.kind != "atomic":
            raise ArgumentError("sigma must be an atomic measure")
        self.gamma = gamma
        self.sigma = sigma

    def scaled(self, factor):
        """Generator of the factor-th convolution power (principal root)."""
        if factor < 0:
            raise ArgumentError("generator scaling needs a nonnegative factor")
        try:
            gamma = cmath.exp(factor * cmath.log(_as_complex(self.gamma)))
        except OverflowError:
            raise NumericalError("scaling the generator overflows double precision") from None
        atoms = [(t, w * Fraction(factor)) for t, w in self.sigma.atoms]
        return IdGenerator(gamma, CircleMeasure.atomic(atoms, probability=False))

    def __repr__(self):
        return f"IdGenerator(gamma={self.gamma!r}, sigma={self.sigma!r})"


# ---------------------------------------------------------------------------
# Series exponentials (double precision only)
# ---------------------------------------------------------------------------


def series_exp(f):
    """exp of a truncated series, via n e_n = sum k f_k e_{n-k}."""
    if f.mode != "approx":
        raise ArgumentError("series exponentials run in approx mode only")
    c = f.coeffs
    try:
        out = [cmath.exp(c[0])] + [0j] * f.order
    except OverflowError:
        raise NumericalError("a series exponential overflows double precision") from None
    for n in range(1, f.order + 1):
        acc = 0j
        for k in range(1, n + 1):
            acc += k * c[k] * out[n - k]
        out[n] = acc / n
    return TruncatedSeries.approx(out)


def series_log(f):
    """Principal log of a truncated series; the constant must avoid (-inf, 0]."""
    if f.mode != "approx":
        raise ArgumentError("series logarithms run in approx mode only")
    c = f.coeffs
    c0 = c[0]
    if c0.imag == 0 and c0.real <= 0:
        raise DomainError("series log needs a constant term off (-inf, 0]")
    out = [cmath.log(c0)] + [0j] * f.order
    for n in range(1, f.order + 1):
        acc = n * c[n]
        for k in range(1, n):
            acc -= k * out[k] * c[n - k]
        out[n] = acc / (n * c0)
    return TruncatedSeries.approx(out)


def series_pow(f, exponent):
    """Principal branch f**exponent for a real exponent."""
    return series_exp(series_log(f).scale(exponent))


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


def _pick_mode(mode, *measures):
    if mode is not None:
        return mode
    if all(m.supports_exact() for m in measures):
        return "exact"
    return "approx"


def _computed_law(moments):
    """The law with the moment series computed in this module, kept as it is.

    A computed moment outside the unit disk means double precision lost the
    result, and so does a moment that is not a number, so this raises
    :class:`NumericalError`; ``moment_seq`` keeps :class:`ArgumentError` for
    lists the caller supplies.
    """
    order = moments.order
    moduli = [abs(v) for v in moments.to_approx().coeffs[1:]]
    if any(math.isnan(x) for x in moduli):
        raise NumericalError(f"a computed moment at order {order} is not a number")
    largest = max(moduli, default=0.0)
    if largest > 1 + _MOMENT_SLACK:
        raise NumericalError(
            f"computed moments at order {order} reach modulus {largest:.3e}, "
            "beyond the bound 1 for a law on the circle"
        )
    return CircleMeasure("moments", series=moments)


def _measure_from_eta(e):
    """Law with the given eta-series, through m = eta/(1 - eta)."""
    return _computed_law(_moments_from_eta(e))


def boolean_convolve(mu1, mu2, order=8, mode=None):
    """The law whose b-series is the product of the two given b-series."""
    mode = _pick_mode(mode, mu1, mu2)
    b = b_series(mu1.moment_series(order, mode)) * b_series(
        mu2.moment_series(order, mode)
    )
    return _measure_from_eta(b.shift_up())


def _subordination(h1, h2):
    """The subordination functions (omega_1, omega_2) of a free product, to order N.

    The psi-laws enter through h_j = eta_j/z, of order N - 1.  omega_1
    solves F(omega) = omega - z h2(z h1(omega)) = 0 and omega_2 is
    z h1(omega_1).  Newton's iteration omega <- omega - delta, with
    delta = F(omega)/F'(omega) and F' = 1 - z^2 h2'(z h1(omega)) h1'(omega),
    starts from h2(0) z, right through degree 1.  A step from a solution
    right through degree d is right through degree 2d + 1, so it runs at
    the precisions N, N//2, ..., 1 taken from the top: log2 N steps of two
    compositions at full order.  F vanishes through degree d, so F' is
    needed only through degree p - d - 1, and the compositions of h1' and
    h2' run at about half the order.  So does omega_2: delta^2 vanishes
    through degree 2d + 1, so with u = z h1(omega) the step's
    z h1(omega - delta) is u - z h1'(omega) delta.
    """
    precisions = [h1.order + 1]
    while precisions[-1] > 1:
        precisions.append(precisions[-1] // 2)
    omega1, omega2 = h2.truncate(0).shift_up(), h1.truncate(0).shift_up()
    for done, p in zip(precisions[:0:-1], precisions[-2::-1]):
        w = omega1._padded(p)
        u = h1.compose(w.truncate(p - 1)).shift_up()
        delta = w - h2.compose(u.truncate(p - 1)).shift_up()  # F(omega), zero through degree done
        omega2 = u
        low = p - done - 2  # h1'(omega) counts through degree low, F' through low + 1
        if low >= 0:
            d1 = h1.derivative().compose(w.truncate(low))
            if low >= 1:
                slope = h2.derivative().compose(u.truncate(low - 1)) * d1.truncate(low - 1)
                step = TruncatedSeries.constant(1, low + 1, h2.mode) - slope.shift_up().shift_up()
                delta = delta * step.reciprocal()._padded(p)
            omega2 = u - (d1._padded(p - 1) * delta.truncate(p - 1)).shift_up()
        omega1 = w - delta
    return omega1, omega2


def _subordinated_product(M1, m1, M2, m2):
    """Phi- and psi-moments of the product of two pairs of moment series, by subordination.

    With h_j = eta(m_j)/z and omega_1, omega_2 from :func:`_subordination`,
    the product has eta = omega_1 omega_2 / z and
    b(M) = b(M1) o omega_1 * b(M2) o omega_2, because the Sigma-series
    b(M) o eta^-1 is multiplicative and eta_j^-1 o eta = omega_j.  Where
    M_j is m_j, b(M_j) o omega_j is h_j(omega_j), that is omega_(other)/z,
    and when both are, M is m.  No series is reverted, and since F'(0) = 1
    nothing is divided by a first moment: a psi-law with m_1 = 0, the
    uniform law among them, takes the same route.  The subordination
    functions map the disk into itself, so a coefficient beyond modulus 1
    (up to ``_MOMENT_SLACK``) means that double precision lost them, or
    that an input is no law, and raises :class:`NumericalError`.
    """
    omega1, omega2 = _subordination(b_series(m1), b_series(m2))
    moduli = [abs(c) for omega in (omega1, omega2) for c in omega.to_approx().coeffs]
    if not all(x <= 1 + _MOMENT_SLACK for x in moduli):
        raise NumericalError(
            f"subordination functions at order {m1.order} reach modulus {max(moduli):.3e}, "
            "beyond the bound 1 for a self-map of the disk"
        )
    b1, b2 = omega2.shift_down(), omega1.shift_down()  # h1(omega_1) and h2(omega_2)
    m = _moments_from_eta((b1 * b2).shift_up())
    if M1 == m1 and M2 == m2:
        return m, m
    if M1 != m1:
        b1 = b_series(M1).compose(omega1)
    if M2 != m2:
        b2 = b_series(M2).compose(omega2)
    return _moments_from_eta((b1 * b2).shift_up()), m


def free_multiplicative_convolve(nu1, nu2, order=8, mode=None):
    """The free multiplicative convolution of two laws: the psi side of :func:`cfree_multiplicative_convolve`."""
    mode = _pick_mode(mode, nu1, nu2)
    m1, m2 = nu1.moment_series(order, mode), nu2.moment_series(order, mode)
    return _computed_law(_subordinated_product(m1, m1, m2, m2)[1])


def cfree_multiplicative_convolve(p1, p2, order=8, mode=None):
    """Pair product, by :func:`_subordinated_product` in both modes.

    Where both first psi-moments are invertible, its t- and ct-series are
    the products of the factors' (the T route of
    :meth:`TransformBundle.multiply`, the products' independent check).
    Subordination also takes m_1 = 0, the uniform psi-law included.  In
    doubles it stays within a few ulps of the exact product up to order 64,
    while the T route loses the product from order 24 or so on.  In exact
    mode the two routes give the same series; subordination takes 0.95-1.33
    times as long at orders 8-16 and about half as long at 64 (125 against
    219 ms for a c-free product of quarter-turn pairs that are not
    self-paired; medians of 5, 2-CPU x86-64 host, CPython 3.11).
    """
    mode = _pick_mode(mode, p1.mu, p1.nu, p2.mu, p2.nu)
    (M1, m1), (M2, m2) = ((p.mu.moment_series(order, mode), p.nu.moment_series(order, mode)) for p in (p1, p2))
    M, m = _subordinated_product(M1, m1, M2, m2)
    return MeasurePair(_computed_law(M), _computed_law(m))


# ---------------------------------------------------------------------------
# Infinitely divisible laws and semigroups
# ---------------------------------------------------------------------------


def herglotz_exp(g, sign, order=8):
    """gamma times exp(sign * integral of (1 + zeta z)/(1 - zeta z) d sigma).

    The kernel expands as 1 + 2 sum_k zeta^k z^k, so the exponent is read
    off sigma's mass and moments; the result is its series exponential.
    """
    if sign not in (1, -1):
        raise ArgumentError("sign must be +1 or -1")
    try:
        mass = float(sum(w for _, w in g.sigma.atoms))
    except OverflowError:
        raise NumericalError("the generator's mass overflows double precision") from None
    if order >= 1:
        sig = g.sigma.moment_series(order, "approx")
        exponent = TruncatedSeries.approx([mass] + [2 * c for c in sig.coeffs[1:]])
    else:
        exponent = TruncatedSeries.approx([mass])
    return series_exp(exponent.scale(sign)).scale(_as_complex(g.gamma))


def idiv_boolean_measure(g, order=8):
    """The boolean-convolution infinitely divisible law generated by g."""
    if order < 1:
        raise ArgumentError("at least one moment must be requested")
    return _measure_from_eta(herglotz_exp(g, -1, order - 1).shift_up())


def idiv_free_measure(g, order=8):
    """The free-convolution infinitely divisible law generated by g.

    The generator exponential here is the compositional inverse of the
    eta-series, so one series reversion recovers the moments.
    """
    if order < 1:
        raise ArgumentError("at least one moment must be requested")
    inverse = herglotz_exp(g, 1, order - 1).shift_up()
    return _measure_from_eta(inverse.invert_composition())


def semigroup_pair(gen_nu, sigma_target, t, order=8):
    """The time-t member of the pair semigroup driven by two generators.

    The psi-law comes from the t-scaled free generator; the phi-law is
    pinned by raising the target sigma-series, evaluated along the psi-law's
    eta-series, to the t-th principal power.  Time zero is the unit pair of
    point masses at 1.
    """
    if t < 0:
        raise ArgumentError("the semigroup parameter must be nonnegative")
    if t == 0:
        return MeasurePair(CircleMeasure.point_mass(0), CircleMeasure.point_mass(0))
    st = sigma_target.to_approx()
    if abs(st.coeffs[0]) > 1 + 1e-9:
        raise ArgumentError("a sigma-series has its constant term in the closed disk")
    if st.order < order - 1:
        raise ArgumentError("the sigma-series target is too short for the order")
    nu_t = idiv_free_measure(gen_nu.scaled(t), order)
    composed = st.compose(eta(nu_t.moment_series(order, "approx")))
    b = series_pow(composed, t).truncate(order - 1)
    return MeasurePair(_measure_from_eta(b.shift_up()), nu_t)


# ---------------------------------------------------------------------------
# Centering and the limit experiment
# ---------------------------------------------------------------------------

_ARG_WINDOW = 1.0  # radians; atoms with |arg| beyond this stay out of the average


def _signed_turn(turn):
    return turn - 1 if turn > Fraction(1, 2) else turn


def _center_one(measure, order):
    """Rotation (in turns), recentered law, and kernel series of one law.

    The rotation averages the principal argument over atoms within the
    window, so it is an exact rational number of turns; whether an atom
    falls inside the window is decided in floats, which is safe because a
    rational turn never sits exactly on the window edge.
    """
    if measure.kind != "atomic":
        raise ArgumentError("centering is defined for atomic laws")
    rotation = Fraction(0)
    for turn, weight in measure.atoms:
        signed = _signed_turn(turn)
        if abs(float(signed)) * math.tau < _ARG_WINDOW:
            rotation += weight * signed
    centered = CircleMeasure.atomic(
        [(turn - rotation, weight) for turn, weight in measure.atoms]
    )
    h = [0j] * (order + 1)
    imag_part = 0.0
    for turn, weight in centered.atoms:
        zeta = cmath.exp(1j * math.tau * float(turn))
        deficit = float(weight) * (1 - zeta.real)
        imag_part += float(weight) * zeta.imag
        h[0] += deficit
        power = 1 + 0j
        for k in range(1, order + 1):
            power *= zeta
            h[k] += 2 * deficit * power
    h[0] += -1j * imag_part
    return rotation, centered, TruncatedSeries.approx(h)


def limit_experiment(s, omega_turns, n_list=(4, 8, 16, 32), order=4):
    """Compare pair products with boolean products along a triangular array.

    Row n carries n identical factors (1 - s/n) delta_1 + (s/n) delta_omega,
    used as both laws of each pair.  By multiplicativity the n-fold pair
    product has the n-th powers of the factor's t- and ct-series, and the
    n-fold boolean product the n-th power of its b-series, so a row costs
    O(log n) series products.  For every row the report holds the
    coefficientwise gap between the sigma-series of the n-fold pair product
    and the b-series of the n-fold boolean product, the rotation constant
    gamma_n, the spread moments sigma_n, and a generator fitted from the
    last row's boolean product.  A factor with vanishing first moment
    (s/n = 1/2 at half a turn) has no t-series, so its row is refused.
    """
    s = Fraction(s)
    omega_turns = Fraction(omega_turns)
    if not n_list or any(n < 1 for n in n_list):
        raise ArgumentError("row sizes must be positive")
    if not 0 <= s <= min(n_list):
        raise ArgumentError("s must satisfy 0 <= s <= min(n)")
    rows = []
    gamma_n = {}
    sigma_n_moments = {}
    last_boolean = None
    for n in n_list:
        weight = s / Fraction(n)
        factor = CircleMeasure.atomic([(0, 1 - weight), (omega_turns, weight)])
        if not factor.moment_series(1)._nonzero(1):
            raise UnsupportedDomainError(
                f"row n={n}: the factor's first moment vanishes, so it has no t-series"
            )
        m = factor.moment_series(order + 1, "approx")
        pair_product = TransformBundle.from_moments(m, m).power(n)
        boolean_b = b_series(m).pow_int(n)
        for moments in (pair_product.M, pair_product.m, _moments_from_eta(boolean_b.shift_up())):
            _computed_law(moments)  # the moment bound on each n-fold law
        pair_sigma = pair_product.Sigma
        for j in range(order + 1):
            rows.append(
                {"n": n, "j": j, "gap": abs(pair_sigma.coeffs[j] - boolean_b.coeffs[j])}
            )
        rotation, _, h = _center_one(factor, max(order, 2))
        h0, h1, h2 = h.coeffs[:3]
        gamma_n[n] = cmath.exp(1j * n * (math.tau * float(rotation) - h0.imag))
        sigma_n_moments[n] = [complex(n * h0.real), n * h1 / 2, n * h2 / 2]
        last_boolean = boolean_b
    log_b = series_log(last_boolean)
    fit = {
        "gamma": cmath.exp(1j * log_b.coeffs[0].imag),
        "sigma_moments": [-log_b.coeffs[0].real + 0j]
        + [-c / 2 for c in log_b.coeffs[1:3]],
    }
    return {
        "rows": rows,
        "summary": {
            "gamma_n": gamma_n,
            "sigma_n_moments": sigma_n_moments,
            "fit": fit,
        },
    }


# ---------------------------------------------------------------------------
# Sanity gate
# ---------------------------------------------------------------------------


def toeplitz_psd_check(moments, tolerance=1e-9):
    """Positive-semidefiniteness gate on a moment list (m_0 = 1 implied).

    Decides whether the Toeplitz matrix T = [m_{j-k}] of size len(moments)//2 + 1,
    with m_{-n} the conjugate of m_n, has no eigenvalue below -tolerance, by the
    Szegő (Levinson-Durbin) recursion on c_0 = 1 + tolerance, c_k = m_k (Simon,
    Orthogonal Polynomials on the Unit Circle, ch. 1-2).  Its prediction errors
    E_k are the LDL^H pivots of T + tolerance*I.  Returns (ok, min_k E_k - tolerance),
    stopping at the first E_k that is not > 0, so that NaN fails.  When ok, the
    second value bounds the smallest eigenvalue of T from above (1 for the uniform
    law); otherwise it is at most -tolerance, as that eigenvalue then is.
    """
    m = [_as_complex(v) for v in moments[: len(moments) // 2]]
    predictor = [1 + 0j]  # monic, and (T + tolerance*I) predictor = (E, 0, ..., 0)
    error = smallest = 1 + tolerance
    for k in range(len(m)):
        delta = sum(x * p for x, p in zip(m[k::-1], predictor))
        alpha = delta / error  # a Verblunsky coefficient, up to sign and conjugation
        predictor = [p - alpha * q.conjugate() for p, q in zip(predictor + [0j], [0j] + predictor[::-1])]
        error -= abs(delta) * abs(alpha)
        if not error > 0:
            return False, error - tolerance
        smallest = min(smallest, error)
    return True, smallest - tolerance
