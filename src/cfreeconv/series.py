"""Truncated power series over exact complex rationals or complex doubles.

A series keeps coefficients c_0..c_N for a fixed truncation order N and a
mode: ``exact`` coefficients are :class:`ComplexRational` (pairs of
``fractions.Fraction``), ``approx`` coefficients are Python complex.  All
series taking part in one computation share a mode; binary arithmetic also
insists on a common order.  Operations that lose the top coefficient
(shifting down by one power of z, composition-style transforms) return a
series of lower order rather than padding with junk.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError, DomainError

EXACT = "exact"
APPROX = "approx"


class ComplexRational:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _of(cls, value):
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise ArgumentError(f"cannot use {value!r} as an exact scalar")

    def __add__(self, other):
        other = self._of(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._of(other))

    def __rsub__(self, other):
        return self._of(other) + (-self)

    def __mul__(self, other):
        other = self._of(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ArgumentError("exact powers take nonnegative integer exponents")
        out = ComplexRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
        return (
            isinstance(other, ComplexRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def _coerce(value, mode):
    if mode == EXACT:
        return ComplexRational._of(value)
    if isinstance(value, ComplexRational):
        return value.to_complex()
    if isinstance(value, (int, float, complex, Fraction)):
        return complex(value)
    raise ArgumentError(f"cannot use {value!r} as an approx scalar")


def _zero(mode):
    return ComplexRational() if mode == EXACT else 0j


def _one(mode):
    return ComplexRational(1) if mode == EXACT else 1 + 0j


class TruncatedSeries:
    """Coefficients c_0..c_order in one arithmetic mode."""

    __slots__ = ("order", "mode", "coeffs")

    def __init__(self, coeffs, mode, order=None):
        if mode not in (EXACT, APPROX):
            raise ArgumentError(f"unknown mode {mode!r}")
        coeffs = [_coerce(c, mode) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ArgumentError("order must be nonnegative")
        if len(coeffs) > order + 1:
            raise ArgumentError("more coefficients than the order allows")
        coeffs += [_zero(mode)] * (order + 1 - len(coeffs))
        self.order = order
        self.mode = mode
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, coeffs, order=None):
        return cls(coeffs, EXACT, order)

    @classmethod
    def approx(cls, coeffs, order=None):
        return cls(coeffs, APPROX, order)

    @classmethod
    def zero(cls, order, mode):
        return cls([], mode, order)

    @classmethod
    def constant(cls, value, order, mode):
        return cls([value], mode, order)

    @classmethod
    def identity(cls, order, mode):
        """The series z."""
        if order < 1:
            raise ArgumentError("identity needs order >= 1")
        return cls([_zero(mode), _one(mode)], mode, order)

    # -- basics --------------------------------------------------------------

    def coefficient(self, k):
        if not 0 <= k <= self.order:
            raise ArgumentError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.mode == other.mode
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.mode, self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, {self.mode!r})"

    def _check_binary(self, other):
        if not isinstance(other, TruncatedSeries):
            raise ArgumentError("expected a TruncatedSeries")
        if self.mode != other.mode:
            raise ArgumentError("mode mismatch")
        if self.order != other.order:
            raise ArgumentError(
                f"order mismatch ({self.order} vs {other.order}); truncate first"
            )

    def truncate(self, order):
        if order > self.order:
            raise ArgumentError("cannot raise the order of a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], self.mode, order)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_binary(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.mode
        )

    def __sub__(self, other):
        self._check_binary(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.mode
        )

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.mode)

    def __mul__(self, other):
        self._check_binary(other)
        n = self.order
        out = [_zero(self.mode)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, self.mode)

    def scale(self, scalar):
        s = _coerce(scalar, self.mode)
        return TruncatedSeries([s * c for c in self.coeffs], self.mode)

    def pow_int(self, k):
        """self**k by square-and-multiply: O(log k) products."""
        if not isinstance(k, int) or k < 0:
            raise ArgumentError("pow_int takes a nonnegative integer")
        out = TruncatedSeries.constant(_one(self.mode), self.order, self.mode)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- structural ops ------------------------------------------------------

    def shift_down(self):
        """Divide by z.  Needs c_0 = 0; drops to order-1."""
        if self.coeffs[0]:
            raise DomainError("shift_down needs a vanishing constant term")
        if self.order < 1:
            raise ArgumentError("nothing left below order 0")
        return TruncatedSeries(self.coeffs[1:], self.mode, self.order - 1)

    def shift_up(self):
        """Multiply by z; the order grows by one."""
        return TruncatedSeries(
            (_zero(self.mode),) + self.coeffs, self.mode, self.order + 1
        )

    def compose(self, inner):
        """self(inner(z)), truncated at the smaller of the two orders.

        The inner series must vanish at 0, otherwise truncation would not
        commute with composition.
        """
        if self.mode != inner.mode:
            raise ArgumentError("mode mismatch")
        if inner.coeffs[0]:
            raise DomainError("composition needs an inner series with c_0 = 0")
        n = min(self.order, inner.order)
        f = self.truncate(n)
        g = inner.truncate(n)
        out = TruncatedSeries.constant(f.coeffs[n], n, f.mode)
        for k in range(n - 1, -1, -1):
            out = out * g + TruncatedSeries.constant(f.coeffs[k], n, f.mode)
        return out

    def reciprocal(self):
        """1/self; needs an invertible constant term."""
        a0 = self.coeffs[0]
        if not a0:
            raise DomainError("reciprocal needs a nonzero constant term")
        inv = [_one(self.mode) / a0]
        for n in range(1, self.order + 1):
            acc = _zero(self.mode)
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * inv[n - k]
            inv.append(-acc / a0)
        return TruncatedSeries(inv, self.mode)

    def invert_composition(self):
        """The compositional inverse g with self(g(z)) = z + O(z^{N+1}).

        Needs c_0 = 0 and c_1 invertible.  Lagrange reversion: with
        h = z/self(z), the coefficient g_k is [z^(k-1)] h^k / k, so one
        reciprocal and the powers of h give every coefficient.
        """
        if self.coeffs[0]:
            raise DomainError("compositional inverse needs c_0 = 0")
        if self.order < 1 or not self.coeffs[1]:
            raise DomainError("compositional inverse needs c_1 != 0")
        h = self.shift_down().reciprocal()
        g = [_zero(self.mode)]
        power = h
        for k in range(1, self.order + 1):
            g.append(power.coeffs[k - 1] / k)
            if k < self.order:
                power = power * h
        return TruncatedSeries(g, self.mode)

    def to_approx(self):
        if self.mode == APPROX:
            return self
        return TruncatedSeries([c.to_complex() for c in self.coeffs], APPROX)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.mode == EXACT:
            coeffs = [[str(c.re), str(c.im)] for c in self.coeffs]
        else:
            coeffs = [[c.real, c.imag] for c in self.coeffs]
        return {"order": self.order, "mode": self.mode, "coeffs": coeffs}

    @classmethod
    def from_json(cls, data):
        mode = data["mode"]
        if mode == EXACT:
            coeffs = [
                ComplexRational(Fraction(re), Fraction(im))
                for re, im in data["coeffs"]
            ]
        elif mode == APPROX:
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
        else:
            raise ArgumentError(f"unknown mode {mode!r}")
        return cls(coeffs, mode, data["order"])

