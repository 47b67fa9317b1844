"""Truncated power series over exact complex rationals or complex doubles.

A series keeps coefficients c_0..c_N for a fixed truncation order N in one
number representation, and the representation is its class:
``TruncatedSeries(coeffs, mode)`` builds an ``_ExactSeries`` or an
``_ApproxSeries``, whose ``mode`` reads "exact" or "approx".  The checks and
the algorithms (powers, composition, reversion, truncation, the shifts, the
derivative, the binomial transform, equality and JSON) are written once, on
``TruncatedSeries``, over the primitives that its docstring lists.  A third
representation costs one subclass, not a branch in every operation.

An ``exact`` series holds Gaussian-integer numerators -- a list of real
parts and a list of imaginary parts -- over one positive common
denominator, with their common content divided out once per operation, so
that equal series have equal integer forms.  Its ``coeffs`` tuple of
:class:`ComplexRational` (pairs of ``fractions.Fraction``) is built only
when a caller reads it; ``to_approx`` and ``to_json`` read the integers.
A product is the schoolbook convolution of the numerator lists over their
nonzero terms, truncated as it goes, so a product with a constant or a
monomial costs O(N).  The reciprocal is Newton iteration over such
products.  ``approx`` coefficients are Python complex numbers.  All series
taking part in one computation share a mode; binary arithmetic also
insists on a common order.
Operations that lose the top coefficient (shifting down by one power of z,
composition-style transforms) return a series of lower order rather than
padding with junk.

Series products per operation at order N, in exact mode: composition
ceil(sqrt(N+1)) - 1 for the powers of the inner series and
ceil((N+1)/ceil(sqrt(N+1))) - 1 for Horner's rule over blocks of outer
coefficients (Brent-Kung baby-step/giant-step), about 2 sqrt(N) in all;
reversion one reciprocal and s - 1 + N//s - 1 with s = ceil(sqrt(N))
(Johansson's baby-step/giant-step Lagrange), again about 2 sqrt(N).  Horner's
rule runs at shrinking orders: the value after block j meets the giant step
j more times, so it is kept only to order N - jk and padded by k zeros
before the next product, whose giant step has k leading zeros.  Every
coefficient is the same sum in the same order as at full order.  Approx
mode runs the same code with blocks of one coefficient: that is Horner's
rule (N products at orders 1..N, about N^3/6 complex multiply-adds rather
than the N^3/2 of N full products) and the power-by-power Lagrange loop
(N - 1 products), with their rounding.  In floats a composition's giant
step multiplies the rounding error of each block by coefficients that grow
like binomials wherever the inner series' coefficients do not decay (the
reversion of a law near a point mass), and the error no longer cancels.
Giant-step reversion is about as accurate as the loop, but it moves
rounding enough to flip ill-conditioned approx results across their checks
both ways, so approx mode keeps the loop until it has a precision budget.
The binomial transform f(z/(1-z)) needs no product in either mode.

An approx product, reciprocal and reversion form each coefficient as one
dot product, ``sum(map(mul, ...))``, accumulated in ascending index of the
left operand: the order of the schoolbook loops that the tests keep as
references.  A product leaves out the terms outside each operand's span of
nonzero coefficients, as the loop skips zero terms, but keeps the zeros
inside the span.  That changes no bit of a finite result: a running sum
that starts at +0.0 never becomes -0.0, and adding a zero of either sign
leaves any other value as it is.  With a non-finite coefficient it can:
0 * inf puts NaN where the loop leaves 0j, so
``from_json`` refuses non-finite approx coefficients.  The product slices
the left span once and reverses the right span once, and each coefficient
pairs a suffix of one with the other, so that ``map`` stops where a span
ends: every sum covers the index range of per-coefficient bounds in the
same order, and keeps its bits, infinities and NaNs included.  Nearly all
of a product's time is then in its dot products: 4, 16, 51 and 178 us for
dense operands of 5, 16, 32 and 64 terms, against 7, 27, 71 and 221 us
with two bounds and two slices per coefficient (best of 40 on a shared
2-CPU x86-64 Linux host, CPython 3.11).  Kernel results in
approx mode are built by ``_from_complex``, which takes a sequence of
Python complex numbers as it is; only the public constructor converts ints,
Fractions and ComplexRationals through ``_coerce``.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, sub

from .errors import ArgumentError, DomainError, NumericalError

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
        # A real value equals the int or Fraction it came from, so it hashes
        # like one.
        if not self.im:
            return hash(self.re)
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


def _exact_parts(value):
    """(re numerator, re denominator, im numerator, im denominator) of an exact scalar."""
    if isinstance(value, ComplexRational):
        re, im = value.re, value.im
        return re.numerator, re.denominator, im.numerator, im.denominator
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator, 0, 1
    raise ArgumentError(f"cannot use {value!r} as an exact scalar")


def _json_float(value, what):
    """A JSON number as a finite float.  1e400 parses to inf, NaN to nan, and a boolean is no number."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ArgumentError(f"{what} must be a finite number, not {value!r}")


_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")


def _json_fraction(value, what):
    """The exact value of a JSON integer, finite float or fraction string such as "-2/7".

    ``Fraction("1e10000000")`` builds the whole power of ten, so a string's
    decimal exponent is refused beyond the interpreter's limit on integer
    digits (``sys.get_int_max_str_digits()``, or 4300 where that is 0 or
    missing) before the value is built.
    """
    if type(value) is not str:
        return Fraction(value if type(value) is int else _json_float(value, what))
    exponent = _EXPONENT.search(value)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ArgumentError(f"{what} has a decimal exponent beyond {limit} in magnitude: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ArgumentError(f"{what} must be a number or a fraction string, not {value!r}") from None


def _json_field(data, key, kind, what):
    """``data[key]``, refused unless ``data`` is an object whose ``key`` entry is a ``kind``."""
    types = {"string": str, "list": (list, tuple)}[kind]
    if not isinstance(data, dict) or not isinstance(data.get(key), types):
        raise ArgumentError(f"{what} must be a JSON object whose {key!r} entry is a {kind}")
    return data[key]


def _json_pair(value, what):
    """A JSON [re, im] pair, as it is; anything else is refused."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ArgumentError(f"{what} must be an [re, im] pair, not {value!r}")
    return value


# -- the exact kernel: products of lists of integer numerators ----------------


def _gaussian_product(a, b, c, d):
    """Numerator lists of (a + ib)(c + id), truncated to len(a) terms.

    The schoolbook convolution, over the nonzero terms of each operand only
    and stopping at the truncation, so that a product with a constant or a
    monomial costs O(N).  Packing each list into one big integer (Kronecker
    substitution) wins on long dense operands of one uniform width (65 terms
    of 32 bits: 0.25 ms against 1.6 ms), but the series products here are
    not like that: their numerators grow along the series, so every packed
    digit would be as wide as the widest, and the packed product also forms
    the N top coefficients that the truncation drops.  On the exact c-free
    product of two three-atom quarter-turn pairs, the schoolbook throughout
    took 54, 220 and 455 ms at orders 32, 48 and 64 (best of 5), against 67,
    284 and 735 ms with Kronecker above 16 terms.
    """
    count = len(a)
    left = [(i, x, y) for i, x, y in zip(range(count), a, b) if x or y]
    right = [(j, u, v) for j, u, v in zip(range(count), c, d) if u or v]
    re, im = [0] * count, [0] * count
    for i, x, y in left:
        top = count - i
        for j, u, v in right:
            if j >= top:
                break
            re[i + j] += x * u - y * v
            im[i + j] += x * v + y * u
    return re, im


# -- the approx kernel: dot products of complex coefficients ---------------------


def _complex_product(a, b):
    """Coefficients of a b truncated to len(a) terms, a and b tuples of complex.

    c_k is one dot product, sum(map(mul, ...)), over the i for which a_i and
    b_(k-i) lie between the first and last nonzero term of their operand,
    accumulated in ascending i as the schoolbook loop does.  Only zero terms
    are left out, so a product with a polynomial of low degree, such as a
    power of z/f for a Moebius f, costs its length times that degree.

    Each span [lo, hi] is found by scanning in from both ends.  a's span is
    sliced once and b's span reversed once, so cut[t] = b_(hi_b - t).  For
    k <= lo_a + hi_b the sum pairs span with cut[lo_a + hi_b - k:], for
    larger k (b shorter than the truncation) span[k - lo_a - hi_b:] with
    cut; ``map`` stops at the shorter operand, at a_(min(hi_a, k - lo_b)).
    So every c_k sums the terms from a_(max(lo_a, k - hi_b)) on, in the
    order that per-k bounds give, and keeps their bits, with infinities and
    NaNs too.  The only setup is the four scans and two slices: dense
    operands of 5, 16, 32 and 64 terms cost about 4, 16, 51 and 178 us a
    product (see the module docstring).
    """
    count = len(a)
    hi_a = hi_b = count - 1
    while not a[hi_a]:
        if not hi_a:
            return [0j] * count
        hi_a -= 1
    while not b[hi_b]:
        if not hi_b:
            return [0j] * count
        hi_b -= 1
    lo_a = lo_b = 0
    while not a[lo_a]:
        lo_a += 1
    while not b[lo_b]:
        lo_b += 1
    span = a[lo_a : hi_a + 1]
    cut = b[hi_b : lo_b - 1 : -1] if lo_b else b[hi_b::-1]
    edge = lo_a + hi_b
    out = [0j] * count
    for k in range(lo_a + lo_b, min(count, edge + 1)):
        out[k] = sum(map(mul, span, cut[edge - k :]))
    for k in range(edge + 1, min(count, hi_a + hi_b + 1)):
        out[k] = sum(map(mul, span[k - edge :], cut))
    return out


def _binomial_rows(c):
    """[c_0, b_1, .., b_N] with b_n = sum_k c_k C(n-1, k-1)."""
    out, row = c[:1], c[1:]
    while row:
        out.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return out


def _common_denominator(series):
    """The (re, im) numerator lists of exact series over d, the lcm of their denominators, and d."""
    d = lcm(*(s._den for s in series))
    return [
        (s._re, s._im) if s._den == d else ([x * (d // s._den) for x in s._re], [y * (d // s._den) for y in s._im])
        for s in series
    ], d


def _kind(mode):
    """The series class that holds a mode's representation."""
    try:
        return _KINDS[mode]
    except (KeyError, TypeError):
        raise ArgumentError(f"unknown mode {mode!r}") from None


class TruncatedSeries:
    """Coefficients c_0..c_order in one number representation.

    ``TruncatedSeries(coeffs, mode)`` builds the subclass that holds that
    mode's data, whose ``mode`` reads "exact" or "approx".  The checks and
    the algorithms live here, each written once over the subclass's
    primitives: ``_scalar`` and ``_fill`` read and store the constructor's
    coefficients; ``_map`` applies a function to each data list, given the
    representation's zero; ``_combine``, ``_product``, ``_block_sums``,
    ``_reciprocal`` and ``_lagrange`` are the arithmetic kernels; ``_step``
    is the baby-step size; ``_nonzero`` tests one coefficient and ``_key``
    is the data that equality compares.  ``scale``, ``to_approx`` and the
    JSON scalars complete the set.  ``__mul__``, ``compose``,
    ``reciprocal`` and ``invert_composition`` stay here, where tracers and
    the tests' product counts patch them.
    """

    __slots__ = ("order",)

    def __new__(cls, coeffs, mode, order=None):
        return object.__new__(_kind(mode))

    def __init__(self, coeffs, mode, order=None):
        coeffs = [self._scalar(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ArgumentError("order must be nonnegative")
        if len(coeffs) > order + 1:
            raise ArgumentError("more coefficients than the order allows")
        self.order = order
        self._fill(coeffs, order + 1 - len(coeffs))

    @staticmethod
    def _from_ints(re, im, den):
        """The exact series sum_k (re_k + i im_k)/den z^k, content divided out."""
        g = gcd(den, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [x // g for x in im]
            den //= g
        out = object.__new__(_ExactSeries)
        out.order = len(re) - 1
        out._re, out._im, out._den = re, im, den
        return out

    @staticmethod
    def _from_complex(coeffs):
        """The approx series with these Python complex coefficients, taken as they are."""
        out = object.__new__(_ApproxSeries)
        out.order = len(coeffs) - 1
        out.coeffs = tuple(coeffs)
        return out

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
        return cls([0, 1], mode, order)

    # -- basics --------------------------------------------------------------

    def coefficient(self, k):
        if not 0 <= k <= self.order:
            raise ArgumentError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order and self._key() == other._key()

    def __hash__(self):
        return hash((self.mode, self.order, self._key()))

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
        if order < 0:
            raise ArgumentError("order must be nonnegative")
        if order == self.order:
            return self
        return self._map(lambda c, zero: c[: order + 1])

    def _padded(self, order):
        """self with zero coefficients up to a higher order."""
        return self._map(lambda c, zero: [*c, *[zero] * (order - self.order)])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_binary(other)
        return self._combine(other, add)

    def __sub__(self, other):
        self._check_binary(other)
        return self._combine(other, sub)

    def __neg__(self):
        return self._map(lambda c, zero: [-x for x in c])

    def __mul__(self, other):
        self._check_binary(other)
        return self._product(other)

    def pow_int(self, k):
        """self**k by square-and-multiply: O(log k) products."""
        if not isinstance(k, int) or k < 0:
            raise ArgumentError("pow_int takes a nonnegative integer")
        out = TruncatedSeries.constant(1, self.order, self.mode)
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
        if self._nonzero(0):
            raise DomainError("shift_down needs a vanishing constant term")
        if self.order < 1:
            raise ArgumentError("nothing left below order 0")
        return self._map(lambda c, zero: c[1:])

    def shift_up(self):
        """Multiply by z; the order grows by one."""
        return self._map(lambda c, zero: [zero, *c])

    def derivative(self):
        """d/dz, the coefficients k c_k; drops to order-1."""
        if self.order < 1:
            raise ArgumentError("nothing left below order 0")
        return self._map(lambda c, zero: [k * x for k, x in enumerate(c) if k])

    def compose(self, inner):
        """self(inner(z)), truncated at the smaller order n of the two.

        The inner series g must vanish at 0, otherwise truncation would not
        commute with composition.  Baby-step/giant-step (Brent-Kung,
        Paterson-Stockmeyer): the powers g^0..g^(k-1) and the giant step g^k
        cost k-1 series products.  Each block of k coefficients of self is a
        scalar combination of those powers, with no product, and Horner's
        rule over the blocks in g^k costs ceil((n+1)/k) - 1 more.  Exact mode
        takes k = ceil(sqrt(n+1)), about 2 sqrt(n) products in all; approx
        mode takes k = 1, plain Horner with n products at orders 1..n.
        """
        if self.mode != inner.mode:
            raise ArgumentError("mode mismatch")
        if inner._nonzero(0):
            raise DomainError("composition needs an inner series with c_0 = 0")
        n = min(self.order, inner.order)
        f = self.truncate(n)
        g = inner.truncate(n)
        k = self._step(n + 1)
        powers = [TruncatedSeries.constant(1, n, self.mode), g]
        while len(powers) <= k:
            powers.append(powers[-1] * g)
        giant = powers.pop()
        # The value after block j meets the giant step j more times, so it is
        # needed only to order n - j k: Horner's rule runs at shrinking orders.
        *blocks, out = f._block_sums(powers)
        for block in reversed(blocks):
            out = out._padded(block.order) * giant.truncate(block.order) + block
        return out

    def binomial_transform(self):
        """self(z/(1-z)), same order, with no series product.

        [z^n] self(z/(1-z)) = sum_k c_k C(n-1, k-1) for n >= 1: the n-th
        term is the first entry of the (n-1)-th row of sums of neighbours
        over c_1..c_N, so the transform costs N^2/2 additions.
        """
        return self._map(lambda c, zero: _binomial_rows(list(c)))

    def reciprocal(self):
        """1/self; needs an invertible constant term."""
        if not self._nonzero(0):
            raise DomainError("reciprocal needs a nonzero constant term")
        return self._reciprocal()

    def invert_composition(self):
        """The compositional inverse g with self(g(z)) = z + O(z^{N+1}).

        Needs c_0 = 0 and c_1 invertible.  Lagrange reversion: with
        h = z/self(z), the coefficient g_k is [z^(k-1)] h^k / k.
        Baby-step/giant-step (Johansson): with s = ceil(sqrt(N)) and
        k = j s + i, 0 <= i < s, that coefficient is one dot product of
        the coefficients of (h^s)^j and h^i.  One reciprocal and the powers
        h^2..h^s and (h^s)^2..(h^s)^(N // s) give every g_k.  Exact mode
        takes s = ceil(sqrt(N)), about 2 sqrt(N) series products; approx
        mode takes s = 1, the N - 1 products of h^2..h^N, about N^3/2
        complex multiply-adds.  Each of them is span-sliced dot products
        (``_complex_product``), so at N = 64 the reversion costs within a
        few percent of the bare dot-product chain; only fewer multiply-adds,
        that is giant steps, can cut it further.  A chain that took h's
        reversed suffixes from one list built per reversion, skipping the
        products' span scans, showed no end-to-end gain and is not used.
        """
        if self._nonzero(0):
            raise DomainError("compositional inverse needs c_0 = 0")
        if self.order < 1 or not self._nonzero(1):
            raise DomainError("compositional inverse needs c_1 != 0")
        n = self.order
        h = self.shift_down().reciprocal()
        s = self._step(n)
        baby = [TruncatedSeries.constant(1, n - 1, self.mode), h]
        while len(baby) <= s:
            baby.append(baby[-1] * h)
        giants = [baby[0], baby.pop()]
        while len(giants) <= n // s:
            giants.append(giants[-1] * giants[1])
        return self._lagrange([(giants[k // s], baby[k % s], k) for k in range(1, n + 1)])

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"order": self.order, "mode": self.mode, "coeffs": self._json_coeffs()}

    @classmethod
    def from_json(cls, data):
        """The series ``to_json`` wrote: its order is one less than its coefficient count."""
        mode = _json_field(data, "mode", "string", "a series")
        coeffs = [_json_pair(c, "a series coefficient") for c in _json_field(data, "coeffs", "list", "a series")]
        order = data.get("order")
        if type(order) is not int or order != len(coeffs) - 1:
            raise ArgumentError(f"a series order must be its coefficient count less one, not {order!r}")
        kind = _kind(mode)
        return cls([kind._json_scalar(re, im) for re, im in coeffs], mode)


class _ExactSeries(TruncatedSeries):
    """Gaussian-integer numerators ``_re``, ``_im`` over one denominator ``_den``.

    Its ``coeffs`` slot is filled on the first read.  Only this class has
    the attribute hook: CPython sends every attribute read of a class that
    defines ``__getattr__`` through the hook, which would slow the approx
    loops.
    """

    __slots__ = ("coeffs", "_re", "_im", "_den")
    mode = EXACT
    _scalar = staticmethod(_exact_parts)

    def __getattr__(self, name):
        # Reached only while a slot is unset.
        if name != "coeffs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den = self._den
        self.coeffs = tuple(
            ComplexRational(Fraction(r, den), Fraction(i, den)) for r, i in zip(self._re, self._im)
        )
        return self.coeffs

    def _fill(self, parts, pad):
        # The least common denominator of reduced fractions leaves no content.
        den = lcm(*(p[1] for p in parts), *(p[3] for p in parts))
        self._re = [p[0] * (den // p[1]) for p in parts] + [0] * pad
        self._im = [p[2] * (den // p[3]) for p in parts] + [0] * pad
        self._den = den

    @staticmethod
    def _step(n):
        return isqrt(n - 1) + 1

    def _nonzero(self, k):
        return bool(self._re[k] or self._im[k])

    def _key(self):
        return self._den, tuple(self._re), tuple(self._im)

    def _map(self, fn):
        return TruncatedSeries._from_ints(fn(self._re, 0), fn(self._im, 0), self._den)

    def _combine(self, other, op):
        """op(self, other) over the least common denominator; op is + or -."""
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        return TruncatedSeries._from_ints(
            [op(x * fa, y * fb) for x, y in zip(self._re, other._re)],
            [op(x * fa, y * fb) for x, y in zip(self._im, other._im)],
            self._den * fa,
        )

    def _product(self, other):
        re, im = _gaussian_product(self._re, self._im, other._re, other._im)
        return TruncatedSeries._from_ints(re, im, self._den * other._den)

    def scale(self, scalar):
        return self * TruncatedSeries.constant(scalar, self.order, EXACT)

    def _block_sums(self, powers):
        """sum_i c_(jk+i) powers[i] over i < k = len(powers), for each block j of self.

        Block j is truncated at order N - j k, the order that ``compose``
        needs it to.  The powers are brought over the lcm of their
        denominators once, so that every block is integer work over one
        denominator.
        """
        top = self.order + 1
        scaled, den = _common_denominator(powers)
        out = []
        for start in range(0, top, len(powers)):
            re, im = [0] * (top - start), [0] * (top - start)
            for c, (p_re, p_im) in zip(range(start, top), scaled):
                a, b = self._re[c], self._im[c]
                if a or b:
                    re = [r + a * x - b * y for r, x, y in zip(re, p_re, p_im)]
                    im = [v + a * y + b * x for v, x, y in zip(im, p_re, p_im)]
            out.append(TruncatedSeries._from_ints(re, im, self._den * den))
        return out

    def _reciprocal(self):
        """Newton's iteration b <- b(2 - self*b) from b = 1/c_0.

        Each step doubles the number of correct terms, so it truncates both
        factors to that many.
        """
        re, im, den = self._re, self._im, self._den
        x, y = re[0], im[0]
        b = TruncatedSeries._from_ints([den * x], [-den * y], x * x + y * y)
        size = 1
        while size <= self.order:
            size = min(2 * size, self.order + 1)
            pad = [0] * (size - len(b._re))
            b_re, b_im = b._re + pad, b._im + pad
            # self*b over den*b._den; 2 - self*b over the same.
            e_re, e_im = _gaussian_product(re[:size], im[:size], b_re, b_im)
            e_re = [2 * den * b._den - e_re[0]] + [-v for v in e_re[1:]]
            e_im = [-v for v in e_im]
            new_re, new_im = _gaussian_product(b_re, b_im, e_re, e_im)
            b = TruncatedSeries._from_ints(new_re, new_im, b._den * den * b._den)
        return b

    @staticmethod
    def _lagrange(pairs):
        """0, then [z^(k-1)] big*small / k for each (big, small, k), over one denominator."""
        re, im, dens = [0], [0], [1]  # g_k = (re + i im)/dens[k]
        for big, small, k in pairs:
            a_re, a_im = big._re[:k], big._im[:k]
            b_re, b_im = small._re[k - 1 :: -1], small._im[k - 1 :: -1]
            re.append(sum(map(mul, a_re, b_re)) - sum(map(mul, a_im, b_im)))
            im.append(sum(map(mul, a_re, b_im)) + sum(map(mul, a_im, b_re)))
            dens.append(big._den * small._den * k)
        den = lcm(*dens)
        return TruncatedSeries._from_ints(
            [r * (den // d) for r, d in zip(re, dens)],
            [i * (den // d) for i, d in zip(im, dens)],
            den,
        )

    def to_approx(self):
        # An integer quotient is correctly rounded, as Fraction.__float__ is;
        # 0.0 + keeps the +0.0 that complex(Fraction, Fraction) gives an
        # imaginary part that underflows.
        den = self._den
        coeffs = []
        for k, (r, i) in enumerate(zip(self._re, self._im)):
            try:
                coeffs.append(complex(r / den, 0.0 + i / den))
            except OverflowError:
                raise NumericalError(f"coefficient {k} of an exact series overflows double precision") from None
        return TruncatedSeries._from_complex(coeffs)

    def _json_coeffs(self):
        den = self._den
        return [[str(Fraction(r, den)), str(Fraction(i, den))] for r, i in zip(self._re, self._im)]

    @staticmethod
    def _json_scalar(re, im):
        return ComplexRational(_json_fraction(re, "a series coefficient"), _json_fraction(im, "a series coefficient"))


class _ApproxSeries(TruncatedSeries):
    """A tuple ``coeffs`` of Python complex numbers."""

    __slots__ = ("coeffs",)
    mode = APPROX

    @staticmethod
    def _scalar(value):
        return _coerce(value, APPROX)

    def _fill(self, coeffs, pad):
        self.coeffs = tuple(coeffs) + (0j,) * pad

    @staticmethod
    def _step(n):
        return 1  # Horner's rule and the power-by-power loop; see the module docstring

    def _nonzero(self, k):
        return bool(self.coeffs[k])

    def _key(self):
        return self.coeffs

    def _map(self, fn):
        return TruncatedSeries._from_complex(fn(self.coeffs, 0j))

    def _combine(self, other, op):
        return TruncatedSeries._from_complex(list(map(op, self.coeffs, other.coeffs)))

    def _product(self, other):
        return TruncatedSeries._from_complex(_complex_product(self.coeffs, other.coeffs))

    def scale(self, scalar):
        s = self._scalar(scalar)
        return self._map(lambda c, zero: [s * x for x in c])

    def _block_sums(self, powers):
        """Blocks of one coefficient: c_j times the constant 1, truncated at order N - j."""
        top = self.order + 1
        return [TruncatedSeries._from_complex((c,) + (0j,) * (top - 1 - j)) for j, c in enumerate(self.coeffs)]

    def _reciprocal(self):
        # inv_n = -(sum_k c_k inv_(n-k), ascending k) / c_0.
        coeffs = self.coeffs
        a0 = coeffs[0]
        inv = [(1 + 0j) / a0]
        for n in range(1, self.order + 1):
            inv.append(-sum(map(mul, coeffs[1 : n + 1], inv[::-1])) / a0)
        return TruncatedSeries._from_complex(inv)

    @staticmethod
    def _lagrange(pairs):
        g = [0j]
        for big, small, k in pairs:
            g.append(sum(map(mul, big.coeffs[:k], small.coeffs[k - 1 :: -1])) / k)
        return TruncatedSeries._from_complex(g)

    def to_approx(self):
        return self

    def _json_coeffs(self):
        return [[c.real, c.imag] for c in self.coeffs]

    @staticmethod
    def _json_scalar(re, im):
        return complex(_json_float(re, "a series coefficient"), _json_float(im, "a series coefficient"))


_KINDS = {EXACT: _ExactSeries, APPROX: _ApproxSeries}
