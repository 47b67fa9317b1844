"""The four benchmark workloads: seeded inputs, timed operations, output checks.

A workload is a fixed cycle of slots.  A slot names an operation kind, a
truncation order (or ground-set size) and, in approx mode, a law family.  The
seed only draws the inputs that fill the slots, so every seed runs the same
mix of operations and the figures of two seeds stay comparable.  Each cycle
of the pool gets fresh draws.

An operation is a zero-argument callable that does the timed work and returns
the library's result.  Its check runs afterwards, outside the timed region,
and raises ``CheckFailed`` when the output is wrong.  Checks compare against a
route independent of the timed one wherever the package has one: partition
sums, the multiplicativity of Sigma, closed forms of Poisson kernels.

Nothing in this module imports ``cfreeconv`` at import time: importing the
package is part of the set-up that the benchmark times.
"""
from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from layers import find_function

QUARTER_TURNS = tuple(Fraction(k, 4) for k in range(4))
TWELFTH_TURNS = tuple(Fraction(k, 12) for k in range(12))

# Exact outputs are checked by series routes that the timed operation does not
# take: in the first pool cycle, which every run makes and which holds one
# operation per slot, on every coefficient; in later cycles on the first
# SHORT_CHECK_ORDER, at a fifth of the cost.  The partition sums over linked
# blocks, which take no series route at all, always stop at SHORT_CHECK_ORDER:
# the number of linked partitions grows too fast for more.
SHORT_CHECK_ORDER = 6
# Approx checks that are not closed forms run on the first APPROX_CHECK_ORDER
# coefficients.  Beyond that the float reversion itself loses digits (the
# known defect of the float route), which the operation's own gates report.
APPROX_CHECK_ORDER = 16
# The package's own sigma gate asks for 1e-8; here it is relative to the
# largest coefficient compared.  Poisson closed forms hold to 1e-16 at order
# 64; generic laws lose digits with the order (2.6e-7 seen at 16, up to O(1)
# at 32), which counts as a failed operation, not as a benchmark error.
APPROX_RTOL = 1e-8
# Pool size: cycles drawn at set-up.  A run that needs more cycles reuses them.
POOL_CYCLES = 4


class CheckFailed(Exception):
    """An operation returned an output that its check rejects."""


class GateRejected(Exception):
    """The package's positivity gate rejected an operation's output."""


@dataclass
class Op:
    kind: str
    order: int
    run: Callable[[], Any]
    check: Callable[[Any], None]
    props: dict = field(default_factory=dict)
    # A strict check is exact (== or byte identity), so a mismatch is a wrong
    # output, and a strict op that raises makes the run incorrect as well.  An
    # approx op that raises or misses its tolerance fails, which counts in
    # ok_ratio: the float kernel's precision loss at high order is a known
    # defect of the float route, not a benchmark error.
    strict: bool = True

    @property
    def label(self):
        return f"{self.kind}@{self.order}"


@dataclass
class Workload:
    name: str
    why: str
    slots: Callable  # tiny -> [(kind, order, family)], one cycle
    make_pool: Callable  # (cf, rng, tiny, workdir) -> cycles, each a list of Op
    warmup: Callable  # (cf, rng, tiny, workdir) -> list of Op
    # Seconds one cycle takes at the seed commit on the reference machine (2
    # cores, Python 3.11).  A run makes round(--seconds / cycle_seconds)
    # cycles: the same work on every commit and every seed, so that ratios and
    # order statistics compare like with like.
    cycle_seconds: float


def spread_evenly(slots):
    """The same slots, each group of one kind and order spread evenly over the cycle.

    A shared machine's speed can drift by half within tens of seconds.  A group
    run back to back meets one stretch of that drift and sets the median or the
    tail by it; spread out, every group meets the whole run.
    """
    counts = Counter(slot[:2] for slot in slots)
    seen = Counter()
    keyed = []
    for index, slot in enumerate(slots):
        keyed.append(((seen[slot[:2]] + 0.5) / counts[slot[:2]], index, slot))
        seen[slot[:2]] += 1
    return [slot for _, _, slot in sorted(keyed)]


def _ensure(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Laws and series
# ---------------------------------------------------------------------------


# Weights are twelfths from a few fixed triples.  A random denominator would
# make the cost of an exact operation swing by half between draws (Fraction
# sizes follow it), and the benchmark's figures with it; these triples keep
# that spread near 6% while the seed still picks the triple, its order and the
# atoms' positions.
WEIGHT_TRIPLES = ((6, 4, 2), (5, 4, 3), (7, 3, 2), (5, 5, 2))


def atomic_law(cf, rng, turns):
    """Three atoms at distinct turns from ``turns`` with weights from WEIGHT_TRIPLES."""
    chosen = rng.sample(turns, 3)
    weights = list(rng.choice(WEIGHT_TRIPLES))
    rng.shuffle(weights)
    return cf.CircleMeasure.atomic([(t, Fraction(w, 12)) for t, w in zip(chosen, weights)])


def invertible_law(cf, rng, turns):
    """An atomic law whose first moment is nonzero, as the transform route needs.

    A zero first moment is outside the domain of the T-transform (the package
    refuses it by design), so such draws are redrawn.
    """
    while True:
        law = atomic_law(cf, rng, turns)
        if law.moment_series(1, "approx").coeffs[1] != 0:
            return law


def poisson_law(cf, rng):
    radius = rng.uniform(0.2, 0.9)
    return cf.CircleMeasure.poisson(radius * cmath.exp(1j * rng.uniform(0, math.tau)))


def near_identity_law(cf, rng):
    """A factor (1 - s/n) delta_1 + (s/n) delta_omega of the limit experiment's array."""
    n = rng.choice((8, 16, 32))
    s = Fraction(rng.randint(1, 4), 4)
    omega = rng.choice(TWELFTH_TURNS[1:])
    return cf.CircleMeasure.atomic([(0, 1 - s / n), (omega, s / n)])


FAMILIES = {
    "twelfth": lambda cf, rng: invertible_law(cf, rng, TWELFTH_TURNS),
    "poisson": poisson_law,
    "near_identity": near_identity_law,
}


def random_scalar(cf, rng, nonzero=False):
    while True:
        s = cf.ComplexRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if s or not nonzero:
            return s


def random_series(cf, rng, order, c1_nonzero=False):
    coeffs = [cf.ComplexRational()] + [random_scalar(cf, rng) for _ in range(order)]
    if c1_nonzero:
        coeffs[1] = random_scalar(cf, rng, nonzero=True)
    return cf.TruncatedSeries.exact(coeffs)


def law_props(laws, mode, order):
    """Input properties a later optimisation may depend on."""
    m1 = [abs(law.moment_series(1, "approx").coeffs[1]) for law in laws]
    return {
        "mode": mode,
        "order": order,
        "exact_inputs": all(law.supports_exact() for law in laws),
        "small_m1": any(x < 0.5 for x in m1),
    }


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def rel_gap(xs, ys):
    xs, ys = list(xs), list(ys)
    scale = max([1.0] + [abs(complex(v)) for v in xs + ys])
    return max(abs(complex(x) - complex(y)) for x, y in zip(xs, ys)) / scale


def _approx_coeffs(series):
    return [c if isinstance(c, complex) else c.to_complex() for c in series.coeffs]


def ensure_close(a, b, what):
    gap = rel_gap(_approx_coeffs(a), _approx_coeffs(b))
    _ensure(gap <= APPROX_RTOL, f"{what}: relative gap {gap:.3e}")


def ensure_equal(a, b, what):
    _ensure(a == b, f"{what}: exact routes disagree")


def positivity_gate(cf, law, order):
    ok, smallest = cf.toeplitz_psd_check(list(law.moment_series(order).coeffs[1:]))
    if not ok:
        raise GateRejected(f"smallest Toeplitz eigenvalue {smallest:.3e}")


def sigma_by_kernel(cf, M, m):
    """Sigma = b(M) o eta(m)^-1 from kernel calls alone, without the package's gate."""
    return cf.b_series(M).compose(cf.eta(m).invert_composition())


# ---------------------------------------------------------------------------
# exact_convolve
# ---------------------------------------------------------------------------


def _exact_sigmas(cf, mu, nu, order):
    """Sigma of the pairs (mu, nu) and (nu, nu) from exact moments, by b o eta^-1.

    The timed convolutions multiply T and cT series and rebuild the moments by
    forward recurrences; this route never forms T or cT.  Both pairs share the
    reversion of eta(m).
    """
    inverse = cf.eta(nu.moment_series(order, "exact")).invert_composition()
    return tuple(cf.b_series(law.moment_series(order, "exact")).compose(inverse) for law in (mu, nu))


def ensure_sigma(cf, mu, nu, sigma, order, what):
    """Sigma of the pair (mu, nu) is ``sigma``, on every coefficient.

    Checked as sigma o eta(m) = b(M), which is sigma = b(M) o eta(m)^-1
    without the cost of a series reversion.
    """
    M, m = mu.moment_series(order, "exact"), nu.moment_series(order, "exact")
    ensure_equal(sigma.compose(cf.eta(m)), cf.b_series(M), what)


# Exact laws: three atoms at turns 0, 1/4, 1/2, weights from one triple, one
# shape per choice of the middle weight.  The schedule walks through the
# shapes; the seed draws, per operation, one rotation by a quarter turn and
# one reflection for all of its laws.  These symmetries multiply every series
# coefficient by a unit, so Fraction sizes -- and the cost of the operation --
# do not depend on the seed, while the laws themselves do.
EXACT_SHAPES = tuple(
    ((0, Fraction(t[(mid + 1) % 3], 12)), (Fraction(1, 4), Fraction(t[mid], 12)), (Fraction(1, 2), Fraction(t[(mid + 2) % 3], 12)))
    for t in WEIGHT_TRIPLES
    for mid in range(3)
)


class ExactLaws:
    """Laws for exact operations: shapes in schedule order, symmetries from the seed."""

    def __init__(self, cf, rng):
        self.cf, self.rng, self.next_shape = cf, rng, 0

    def draw(self, count):
        turn = Fraction(self.rng.randrange(4), 4)
        sign = self.rng.choice((1, -1))
        laws = []
        for _ in range(count):
            atoms = EXACT_SHAPES[self.next_shape % len(EXACT_SHAPES)]
            self.next_shape += 1
            laws.append(self.cf.CircleMeasure.atomic([(sign * t + turn, w) for t, w in atoms]))
        return laws


def exact_ops(cf, source, kind, order, check_order):
    if kind == "cfree":
        a, b, c, d = source.draw(4)
        p1, p2 = cf.MeasurePair(a, b), cf.MeasurePair(c, d)

        def run():
            out = cf.cfree_multiplicative_convolve(p1, p2, order)
            positivity_gate(cf, out.mu, order)
            positivity_gate(cf, out.nu, order)
            return out

        def check(out):
            (pair1, psi1), (pair2, psi2) = (_exact_sigmas(cf, p.mu, p.nu, check_order) for p in (p1, p2))
            ensure_sigma(cf, out.mu, out.nu, pair1 * pair2, check_order, "Sigma of the pair product")
            # Sigma of a pair does not reach the top psi-moment; the psi-laws
            # convolve freely, and Sigma of the self-pair does reach it.
            ensure_sigma(cf, out.nu, out.nu, psi1 * psi2, check_order, "Sigma of the psi-side free product")

        laws = [p1.mu, p1.nu, p2.mu, p2.nu]
    elif kind == "free":
        a, b = source.draw(2)

        def run():
            out = cf.free_multiplicative_convolve(a, b, order)
            positivity_gate(cf, out, order)
            return out

        def check(out):
            # A pair (nu, nu) convolves c-freely like nu freely, so Sigma of
            # the self-pairs is multiplicative: an independent route.
            want = _exact_sigmas(cf, a, a, check_order)[1] * _exact_sigmas(cf, b, b, check_order)[1]
            ensure_sigma(cf, out, out, want, check_order, "Sigma of the free product")

        laws = [a, b]
    elif kind == "boolean":
        a, b = source.draw(2)

        def run():
            out = cf.boolean_convolve(a, b, order)
            positivity_gate(cf, out, order)
            return out

        def check(out):
            m = out.moment_series(order, "exact")
            eta = (cf.b_series(a.moment_series(order, "exact")) * cf.b_series(b.moment_series(order, "exact"))).shift_up()
            one = cf.TruncatedSeries.constant(1, order, "exact")
            ensure_equal(eta * (one + m), m, "m = eta (1 + m)")

        laws = [a, b]
    elif kind == "bundle":
        mu, nu = source.draw(2)

        def run():
            bundle = cf.TransformBundle.from_moments(mu.moment_series(order, "exact"), nu.moment_series(order, "exact"))
            return bundle.T, bundle.cT, bundle.Sigma

        def check(out):
            n = check_order
            t, ct, sigma = (s.truncate(n - 1) for s in out)
            m = nu.moment_series(n, "exact")
            # The forward recurrences rebuild the moments from T and cT
            # without reverting a series, and Sigma is cT o z/(1-z), the route
            # that the package's own gate does not return.
            ensure_equal(cf.moments_from_t(t), m, "moments from T")
            ensure_equal(cf.phi_moments_from_ct(ct, m), mu.moment_series(n, "exact"), "phi-moments from cT")
            geometric = cf.TruncatedSeries.exact([0] + [1] * (n - 1))
            ensure_equal(sigma, ct.compose(geometric), "Sigma = cT o z/(1-z)")
            # The first coefficients again, by partition sums over linked blocks.
            k = min(n, SHORT_CHECK_ORDER)
            t, ct = t.truncate(k - 1), ct.truncate(k - 1)
            psi = find_function("psi_moments_via_linked_blocks")(t, n_max=k)
            phi = find_function("phi_moments_via_linked_blocks")(ct, t, n_max=k)
            ensure_equal(psi, nu.moment_series(k, "exact"), "T vs linked blocks")
            ensure_equal(phi, mu.moment_series(k, "exact"), "cT vs linked blocks")

        laws = [mu, nu]
    else:
        raise ValueError(kind)
    return Op(kind, order, run, check, law_props(laws, "exact", order))


EXACT_KINDS = ("cfree", "free", "boolean", "bundle")


def exact_slots(tiny):
    # Per kind, two draws at orders 8 and 12 and one at 16.  Order 16 takes
    # about half of a cycle; the median and the tail then fall inside the
    # order-8 and order-12 clusters of operation times, not on a gap.
    orders = (4, 4, 5, 5, 6) if tiny else (8, 8, 12, 12, 16)
    return [(kind, order, "quarter") for order in orders for kind in EXACT_KINDS]


def exact_pool(cf, rng, tiny, workdir):
    laws = ExactLaws(cf, rng)
    return [
        [exact_ops(cf, laws, kind, order, order if cycle == 0 else min(order, SHORT_CHECK_ORDER)) for kind, order, _ in spread_evenly(exact_slots(tiny))]
        for cycle in range(POOL_CYCLES)
    ]


def exact_warmup(cf, rng, tiny, workdir):
    kind, order, _ = exact_slots(tiny)[0]
    return [exact_ops(cf, ExactLaws(cf, rng), kind, order, order)]


# ---------------------------------------------------------------------------
# approx_highorder
# ---------------------------------------------------------------------------


def _poisson_moments(cf, alpha, order):
    return cf.CircleMeasure.poisson(alpha).moment_series(order, "approx")


def approx_ops(cf, rng, kind, order, family):
    k = min(order, APPROX_CHECK_ORDER)
    draw = FAMILIES.get(family)

    def approx(law, n=order):
        return law.moment_series(n, "approx")

    if kind == "cfree":
        x, y = draw(cf, rng), draw(cf, rng)
        p1, p2 = cf.MeasurePair(x, x), cf.MeasurePair(y, y)

        def run():
            out = cf.cfree_multiplicative_convolve(p1, p2, order, mode="approx")
            positivity_gate(cf, out.mu, order)
            positivity_gate(cf, out.nu, order)
            return out

        def check(out):
            ensure_close(approx(out.mu), approx(out.nu), "a self-paired product stays self-paired")
            if family == "poisson":
                want = _poisson_moments(cf, x.alpha * y.alpha, order)
                ensure_close(approx(out.mu), want, "P_a x P_b = P_ab")
            else:
                got = sigma_by_kernel(cf, approx(out.mu, k), approx(out.nu, k))
                want = sigma_by_kernel(cf, approx(x, k), approx(x, k)) * sigma_by_kernel(cf, approx(y, k), approx(y, k))
                ensure_close(got, want, "Sigma of the pair product")

        laws = [x, y]
    elif kind in ("free", "boolean"):
        x, y = draw(cf, rng), draw(cf, rng)
        convolve = "free_multiplicative_convolve" if kind == "free" else "boolean_convolve"

        def run():
            out = getattr(cf, convolve)(x, y, order, mode="approx")
            positivity_gate(cf, out, order)
            return out

        def check(out):
            if family == "poisson":
                ensure_close(approx(out), _poisson_moments(cf, x.alpha * y.alpha, order), "P_a x P_b = P_ab")
            elif kind == "free":
                got = cf.t_transform(approx(out, k))
                ensure_close(got, cf.t_transform(approx(x, k)) * cf.t_transform(approx(y, k)), "T round trip")
            else:
                m = approx(out)
                eta = (cf.b_series(approx(x)) * cf.b_series(approx(y))).shift_up()
                one = cf.TruncatedSeries.constant(1, order, "approx")
                ensure_close(eta * (one + m), m, "m = eta (1 + m)")

        laws = [x, y]
    elif kind == "bundle":
        x, y = draw(cf, rng), draw(cf, rng)

        def run():
            bundle = cf.TransformBundle.from_moments(approx(x), approx(y))
            return bundle.T, bundle.cT, bundle.Sigma

        def check(out):
            t, ct, sigma = (s.truncate(k - 1) for s in out)
            if family == "poisson":
                zero = [0j] * (k - 1)
                ensure_close(t, cf.TruncatedSeries.approx([y.alpha] + zero), "T of P_b is b")
                ensure_close(ct, cf.TruncatedSeries.approx([x.alpha] + zero), "cT of (P_a, P_b) is a")
                ensure_close(sigma, cf.TruncatedSeries.approx([x.alpha] + zero), "Sigma of (P_a, P_b) is a")
            else:
                ensure_close(cf.moments_from_t(t), approx(y, k), "T round trip")
                ensure_close(cf.phi_moments_from_ct(ct, approx(y, k - 1)), approx(x, k), "cT round trip")

        laws = [x, y]
    elif kind == "idiv":
        g = random_generator(cf, rng)

        def run():
            return cf.idiv_free_measure(g, order)

        def check(out):
            inverse = cf.eta(approx(out, k)).invert_composition()
            ensure_close(inverse, cf.herglotz_exp(g, 1, k - 1).shift_up(), "eta^-1 is the generator exponential")

        laws = []
    elif kind == "semigroup":
        g = random_generator(cf, rng)
        target = cf.herglotz_exp(random_generator(cf, rng), -1, order - 1)

        def run():
            return cf.semigroup_pair(g, target, Fraction(1, 2), order)

        def check(out):
            half = cf.MeasurePair(
                cf.CircleMeasure.moment_seq(approx(out.mu).coeffs[1 : k + 1]),
                cf.CircleMeasure.moment_seq(approx(out.nu).coeffs[1 : k + 1]),
            )
            squared = cf.cfree_multiplicative_convolve(half, half, k, mode="approx")
            whole = cf.semigroup_pair(g, target.truncate(k - 1), 1, k)
            ensure_close(approx(squared.mu, k), approx(whole.mu, k), "half + half = whole (phi)")
            ensure_close(approx(squared.nu, k), approx(whole.nu, k), "half + half = whole (psi)")

        laws = []
    elif kind == "limit_row":
        s = Fraction(rng.randint(1, 4), 4)
        omega = rng.choice(TWELFTH_TURNS[1:])
        n = order

        def run():
            return cf.limit_experiment(s, omega, (n,), 4)

        def check(out):
            rows = out["rows"]
            _ensure(len(rows) == 5 and all(math.isfinite(r["gap"]) and r["gap"] >= 0 for r in rows), "gap rows")
            factor = cf.CircleMeasure.atomic([(0, 1 - s / n), (omega, s / n)])
            b0 = cf.b_series(factor.moment_series(2, "approx")).coeffs[0]
            fit = out["summary"]["fit"]
            # The n-fold boolean power has constant term b0**n.
            _ensure(abs(fit["sigma_moments"][0] + n * math.log(abs(b0))) <= 1e-9 * n, "fitted mass")
            _ensure(abs(fit["gamma"] - cmath.exp(1j * n * cmath.phase(b0))) <= 1e-9 * n, "fitted rotation")

        props = {"mode": "approx", "order": 5, "exact_inputs": False, "small_m1": False, "family": family}
        return Op(kind, n, run, check, props, strict=False)
    else:
        raise ValueError(kind)
    props = law_props(laws, "approx", order) if laws else {"mode": "approx", "order": order, "exact_inputs": False, "small_m1": False}
    props["family"] = family
    return Op(kind, order, run, check, props, strict=False)


def random_generator(cf, rng):
    """A unit gamma and a small atomic sigma at twelfth turns."""
    gamma = cmath.exp(1j * rng.uniform(-0.5, 0.5))
    atoms = [(rng.choice(TWELFTH_TURNS), Fraction(rng.randint(1, 6), 20)) for _ in range(2)]
    return cf.IdGenerator(gamma, cf.CircleMeasure.atomic(atoms, probability=False))


def approx_slots(tiny):
    low, mid, high = (8, 12, 16) if tiny else (16, 32, 64)
    families = tuple(FAMILIES)
    slots = []
    for order in (low, mid):
        slots += [(kind, order, fam) for fam in families for kind in EXACT_KINDS]
    # At the top order one operation of each kind: every family there costs
    # 1-5 s per operation, so a full grid would not fit in a run.  The
    # generic near-identity product shows the moment-bound failure, the
    # Poisson bundle the sigma-gate failure that every law hits at 64.
    slots += [
        ("cfree", high, "near_identity"),
        ("free", high, "poisson"),
        ("boolean", high, "twelfth"),
        ("bundle", high, "poisson"),
    ]
    slots += [("idiv", order, "generator") for order in (low, mid, high)]
    slots += [("semigroup", order, "generator") for order in (low, mid)]
    # Limit-experiment rows at n = 16: each runs 15 small order-5 pair
    # convolutions.  Two dozen of them make half the cycle's operations, so
    # the median operation time is theirs, not a point between two clusters.
    slots += [("limit_row", 4 if tiny else 16, "near_identity")] * (3 if tiny else 24)
    return slots


def approx_pool(cf, rng, tiny, workdir):
    return [[approx_ops(cf, rng, kind, order, fam) for kind, order, fam in spread_evenly(approx_slots(tiny))] for _ in range(POOL_CYCLES)]


def approx_warmup(cf, rng, tiny, workdir):
    return [approx_ops(cf, rng, *approx_slots(tiny)[0])]


# ---------------------------------------------------------------------------
# oracle_crosscheck
# ---------------------------------------------------------------------------


def oracle_ops(cf, rng, kind, n):
    def series(c1_nonzero=False):
        return random_series(cf, rng, n, c1_nonzero)

    if kind == "nc_sum_psi":
        r = series()

        def run():
            return cf.moments_from_free_cumulants(r) == find_function("moments_from_free_cumulants_nc_sum")(r)

    elif kind == "nc_sum_phi":
        r, cr = series(), series()
        m = cf.moments_from_free_cumulants(r)

        def run():
            return cf.phi_moments_from_cfree_cumulants(cr, m) == find_function("phi_moments_nc_sum")(cr, r)

    elif kind == "linked_psi":
        m = series(c1_nonzero=True)

        def run():
            t = cf.t_transform(m)
            return find_function("psi_moments_via_linked_blocks")(t, n_max=n) == m

    elif kind == "linked_phi":
        m, M = series(c1_nonzero=True), series()

        def run():
            t = cf.t_transform(m)
            ct = cf.ct_transform(M, m)
            return find_function("phi_moments_via_linked_blocks")(ct, t, n_max=n) == M

    elif kind == "boxed_psi":
        rx, ry = series(), series()

        def run():
            boxed = find_function("boxed_convolution")(rx, ry)
            product = find_function("product_psi_cumulants")
            return all(boxed.coeffs[j] == product(rx, ry, j) for j in range(1, n + 1))

    elif kind == "product_phi":
        mx, Mx, my, My = series(True), series(), series(True), series()

        def run():
            x = cf.TwoStateData.from_moments(Mx, mx)
            y = cf.TwoStateData.from_moments(My, my)
            xy = cf.TransformBundle.from_moments(Mx, mx).multiply(cf.TransformBundle.from_moments(My, my))
            product = find_function("product_phi_cumulants")
            return all(xy.cR.coeffs[j] == product(x, y, j) for j in range(1, n + 1))

    elif kind == "kreweras":

        def run():
            parts = cf.enumerate_nc(n)
            complements = [cf.kreweras(p) for p in parts]
            sizes_add_up = all(len(p) + len(q) == n + 1 for p, q in zip(parts, complements))
            return sizes_add_up and len(set(complements)) == len(parts)

    else:
        raise ValueError(kind)

    def check(agree):
        _ensure(agree is True, f"{kind} at {n}: production and partition-sum routes differ")

    return Op(kind, n, run, check, {"mode": "exact", "order": n, "exact_inputs": True, "small_m1": False})


ORACLE_SIZES = {  # kind -> the two sizes it runs at in every cycle
    "nc_sum_psi": (6, 8),
    "nc_sum_phi": (6, 8),
    "linked_psi": (5, 7),
    "linked_phi": (5, 7),
    "boxed_psi": (4, 5),
    "product_phi": (4, 5),
    "kreweras": (8, 10),
}


def oracle_slots(tiny):
    return [(kind, max(2, n - 3) if tiny else n, "exact") for kind, sizes in ORACLE_SIZES.items() for n in sizes]


def oracle_pool(cf, rng, tiny, workdir):
    return [[oracle_ops(cf, rng, kind, n) for kind, n, _ in spread_evenly(oracle_slots(tiny))] for _ in range(POOL_CYCLES)]


def oracle_warmup(cf, rng, tiny, workdir):
    # Fill the enumeration caches that the timed operations then hit: NC(n)
    # for every n <= 10 (the enumeration recurses through the smaller sizes),
    # the linked partitions up to 7, and the coupled families NC_0(2n), n <= 5.
    largest = {kind: n for kind, n, _ in oracle_slots(tiny)}
    return [oracle_ops(cf, rng, kind, largest[kind]) for kind in ("kreweras", "linked_psi", "boxed_psi")]


# ---------------------------------------------------------------------------
# cli_small
# ---------------------------------------------------------------------------


class CliExit(Exception):
    """A cfreeconv process exited with a nonzero status."""


@dataclass
class CliResult:
    stdout: bytes
    peak_rss_kib: int


def jsonable(value):
    """The CLI's JSON form of a ``limit`` summary: complex numbers as [re, im]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def run_cli(argv, workdir, env):
    """Run ``python -m cfreeconv.cli argv``; return (status, stdout bytes, peak RSS in KiB).

    Stdout goes to a file so that ``os.wait4`` can reap the child and report
    its own peak RSS, not the maximum over every child this process had.
    """
    out_path = os.path.join(workdir, "stdout.bin")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cfreeconv.cli", *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        return proc.returncode, fh.read(), usage.ru_maxrss


def child_env():
    """The benchmark's environment, with the package source on the path."""
    import cfreeconv

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfreeconv.__file__)))
    env["PYTHONPATH"] = src
    return env


def cli_pool(cf, rng, tiny, workdir):
    """One cycle, one op per command: every cycle repeats the same commands on the same files."""
    order = 5 if tiny else 8
    size = 5 if tiny else 8

    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        return path

    def law():
        return invertible_law(cf, rng, QUARTER_TURNS)

    a, b, c, d = law(), law(), law(), law()
    la, lb = write("law_a.json", a.to_json()), write("law_b.json", b.to_json())
    pair_a, pair_b = cf.MeasurePair(a, b), cf.MeasurePair(c, d)
    pa = write("pair_a.json", {"mu": a.to_json(), "nu": b.to_json()})
    pb = write("pair_b.json", {"mu": c.to_json(), "nu": d.to_json()})
    generator = random_generator(cf, rng)
    sig = write("sigma.json", generator.sigma.to_json())
    gamma = complex(generator.gamma)
    s = Fraction(rng.randint(1, 3), 4)
    omega = rng.choice(QUARTER_TURNS[1:])
    csv_path = os.path.join(workdir, "limit.csv")
    verify_seed = rng.randint(0, 10**6)
    o = str(order)

    def lines(payloads):
        return "".join(json.dumps(p, sort_keys=True) + "\n" for p in payloads)

    def pair_payload(pair):
        return {"mu": pair.mu.to_json(), "nu": pair.nu.to_json()}

    def limit_expected():
        report = cf.limit_experiment(s, omega)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["n", "j", "gap"])
        for row in report["rows"]:
            writer.writerow([row["n"], row["j"], repr(row["gap"])])
        with open(csv_path, newline="") as fh:
            _ensure(fh.read() == buf.getvalue(), "limit CSV differs from the library's rows")
        return lines([jsonable(report["summary"])])

    def verify_expected():
        import cfreeconv.verify

        rows = cfreeconv.verify.run("series", order, verify_seed)
        _ensure(all(ok for _, ok, _ in rows), "verify reports a failed check")
        return None

    commands = [
        ("nc", ["nc", "--n", str(size)], lambda: lines(p.to_json() for p in cf.enumerate_nc(size))),
        ("ncl", ["ncl", "--n", str(size)], lambda: lines(g.to_json() for g in cf.enumerate_ncl(size))),
        ("transform", ["transform", "--in", la, "--what", "t", "--order", o],
         lambda: lines([cf.t_transform(a.moment_series(order)).to_json()])),
        ("transform", ["transform", "--in", pa, "--what", "sigma", "--order", o],
         lambda: lines([cf.sigma_series(a.moment_series(order), b.moment_series(order)).to_json()])),
        ("convolve", ["convolve", "--kind", "boolean", "--a", la, "--b", lb, "--order", o],
         lambda: lines([cf.boolean_convolve(a, b, order).to_json()])),
        ("convolve", ["convolve", "--kind", "free", "--a", la, "--b", lb, "--order", o],
         lambda: lines([cf.free_multiplicative_convolve(a, b, order).to_json()])),
        ("convolve", ["convolve", "--kind", "cfree", "--a", pa, "--b", pb, "--order", o],
         lambda: lines([pair_payload(cf.cfree_multiplicative_convolve(pair_a, pair_b, order))])),
        ("idiv", ["idiv", "--gamma", f"{gamma.real!r},{gamma.imag!r}", "--sigma", sig, "--kind", "free", "--order", o],
         lambda: lines([cf.idiv_free_measure(cf.IdGenerator(gamma, generator.sigma), order).to_json()])),
        ("limit", ["limit", "--s", str(s), "--omega", str(omega), "--out", csv_path], limit_expected),
        ("verify", ["verify", "--suite", "series", "--order", o, "--seed", str(verify_seed)], verify_expected),
    ]
    env = child_env()
    return [[cli_op(sub, argv, expected, workdir, env, order) for sub, argv, expected in commands]]


def cli_op(subcommand, argv, expected, workdir, env, order):
    """A CLI op; its check wants exit 0, the first run's stdout, and the library's."""
    first = []
    library = []

    def run():
        status, stdout, rss = run_cli(argv, workdir, env)
        if status != 0:
            raise CliExit(f"{subcommand} exited with {status}")
        return CliResult(stdout, rss)

    def check(result):
        stdout = result.stdout
        if not first:
            first.append(stdout)
            # Byte-identical to the library, run in this process.
            library.append(expected())
        _ensure(stdout == first[0], f"{subcommand}: stdout differs from an earlier identical run")
        if library[0] is not None:
            _ensure(stdout.decode() == library[0], f"{subcommand}: stdout differs from the library result")

    return Op(subcommand, order, run, check, {"mode": "exact", "order": order, "exact_inputs": True, "small_m1": False})


def cli_warmup(cf, rng, tiny, workdir):
    return [cli_op("nc", ["nc", "--n", "4", "--count-only"], lambda: "14\n", workdir, child_env(), 4)]


def cli_slots(tiny):
    return [(sub, 5 if tiny else 8, "process") for sub in
            ("nc", "ncl", "transform", "transform", "convolve", "convolve", "convolve", "idiv", "limit", "verify")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_convolve",
            "exact quarter-turn laws at orders 8/12/16: Fraction arithmetic and the recurrence-driven series kernel do nearly all the work",
            exact_slots, exact_pool, exact_warmup, 13.0,
        ),
        Workload(
            "approx_highorder",
            "complex-float laws at orders 16/32/64: cheap scalars isolate the O(N^4) reversion and composition; known sigma-gate and moment-bound failures count",
            approx_slots, approx_pool, approx_warmup, 12.0,
        ),
        Workload(
            "oracle_crosscheck",
            "exact partition-sum routes at sizes <= 10 against production: partition enumeration, its lru_caches and cf_weight products dominate",
            oracle_slots, oracle_pool, oracle_warmup, 1.8,
        ),
        Workload(
            "cli_small",
            "sequential cfreeconv processes at order 8: process start-up and import outweigh compute; the only workload for the cli layer",
            cli_slots, cli_pool, cli_warmup, 3.4,
        ),
    )
}
