"""The registry of deterministic self-checks behind ``cfreeconv verify``.

``CHECKS`` lists every check once, in report order, as (suite, name, check).
A check is a top-level function ``check(order, rng) -> detail`` that
re-derives one of the package's identities at the given order from seeded
random inputs and raises on the first mismatch.  ``run`` executes a suite
(or all of them) with one ``random.Random`` per check, seeded by
:func:`check_rng` from the seed, the suite and the name, so a check run
alone draws what it draws in a full run.  The test-suite parametrizes over
the same registry, so an installed copy can re-certify itself without a
test runner and the tests keep no second copy of a check.  Checks never
abort a run: a failure is caught and reported as its own row.
"""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from .errors import ArgumentError
from .measures import (
    CircleMeasure,
    IdGenerator,
    MeasurePair,
    boolean_convolve,
    cfree_multiplicative_convolve,
    free_multiplicative_convolve,
    herglotz_exp,
    idiv_boolean_measure,
    idiv_free_measure,
    limit_experiment,
    semigroup_pair,
    toeplitz_psd_check,
)
from .oracles import (
    boxed_convolution,
    catalan_numbers,
    cfree_product_cumulant_series,
    group_nc_s_by_join,
    kreweras_by_maximality,
    moments_from_free_cumulants_nc_sum,
    ncl_block_families,
    phi_moments_nc_sum,
    phi_moments_via_linked_blocks,
    product_phi_cumulants,
    product_psi_cumulants,
    psi_moments_via_linked_blocks,
)
from .partitions import (
    enumerate_nc,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    kreweras,
    one_block,
)
from .series import ComplexRational, TruncatedSeries
from .transforms import (
    TransformBundle,
    b_series,
    cfree_cumulants_from_moments,
    ct_transform,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    moments_from_t,
    phi_moments_from_cfree_cumulants,
    phi_moments_from_ct,
    sigma_series,
    t_transform,
)

DEFAULT_ORDER = 5
DEFAULT_SEED = 2026


def _ensure(condition, message):
    if not condition:
        raise AssertionError(message)


def check_rng(seed, suite, name):
    """The generator one check draws from: it depends on nothing else."""
    return random.Random(f"{seed}:{suite}:{name}")


def random_scalar(rng, nonzero=False):
    """A seeded exact scalar; real and imaginary parts are a/b, a in -5..5, b in 1..4."""
    while True:
        s = ComplexRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if s or not nonzero:
            return s


def random_vanishing(rng, order, c1_nonzero=False):
    """A seeded exact series with c_0 = 0, optionally with c_1 != 0."""
    coeffs = [ComplexRational()] + [random_scalar(rng) for _ in range(order)]
    if c1_nonzero:
        coeffs[1] = random_scalar(rng, nonzero=True)
    return TruncatedSeries.exact(coeffs)


def random_headed(rng, order):
    """A seeded exact series with c_0 != 0, such as a t- or ct-series."""
    return TruncatedSeries.exact(
        [random_scalar(rng, nonzero=True)] + [random_scalar(rng) for _ in range(order)]
    )


def _random_atomic(rng, pool):
    while True:
        turns = rng.sample(pool, rng.randint(1, 3))
        raw = [Fraction(rng.randint(1, 9)) for _ in turns]
        total = sum(raw)
        m = CircleMeasure.atomic([(t, w / total) for t, w in zip(turns, raw)])
        if m.moment_series(1).coeffs[1]:
            return m


# m_1 = 0, which the closed forms must survive; and a partner phi-series.
_FLAT = TruncatedSeries.exact([0, 0, 1, 2, 3])
_FLAT_PARTNER = TruncatedSeries.exact([0, 1, 0, 2, 1])


# -- partitions ---------------------------------------------------------------


def nc_counts(order, rng):
    top = min(order + 3, 8)
    want = catalan_numbers(top)
    got = [len(enumerate_nc(n)) for n in range(1, top + 1)]
    _ensure(got == want == [1, 2, 5, 14, 42, 132, 429, 1430][:top], f"{got} != {want}")
    return "sizes 1..%d: %s" % (top, ",".join(map(str, got)))


def ncl_vs_block_families(order, rng):
    top = min(order + 1, 7)
    counts = []
    for n in range(1, top + 1):
        ours = [g.blocks for g in enumerate_ncl(n)]
        brute = ncl_block_families(n)
        _ensure(len(ours) == len(brute) and set(ours) == set(brute), f"mismatch at n={n}")
        counts.append(len(ours))
    return "sizes 1..%d: %s" % (top, ",".join(map(str, counts)))


def parity_counts(order, rng):
    # |NC_s(2n)| is the Fuss-Catalan number C(3n, n)/(2n+1); |NC_0(2n)| is C_n.
    # NC_0(2n), built from NC(n) and the Kreweras complement, must also be the
    # lattice criterion's family, in NC_s(2n)'s order: the sigma whose join
    # with the doubled singletons is the doubled one-block partition.
    sizes = range(1, 7)
    nc_s = [len(enumerate_nc_s(2 * n)) for n in sizes]
    nc_0 = []
    for n in sizes:
        family = enumerate_nc_0(2 * n)
        _ensure(family == group_nc_s_by_join(2 * n)[one_block(n)], f"nc_0({2 * n}) differs from the join fiber of 1_{n}")
        nc_0.append(len(family))
    _ensure(nc_s == [math.comb(3 * n, n) // (2 * n + 1) for n in sizes], f"nc_s: {nc_s}")
    _ensure(nc_0 == catalan_numbers(6), f"nc_0: {nc_0}")
    return "2n = 2..12: nc_s %s; nc_0 %s" % (",".join(map(str, nc_s)), ",".join(map(str, nc_0)))


def complement_sizes(order, rng):
    top = min(order, 7)
    for n in range(1, top + 1):
        for p in enumerate_nc(n):
            _ensure(len(p) + len(kreweras(p)) == n + 1, repr(p))
    return f"|p| + |complement| = n+1 on all of nc(1..{top})"


def complement_vs_search(order, rng):
    top = min(order, 6)
    for n in range(1, top + 1):
        for p in enumerate_nc(n):
            _ensure(kreweras(p) == kreweras_by_maximality(p), repr(p))
    return f"all of nc(1..{top}) against the maximality search"


# -- series -------------------------------------------------------------------


def inverse_round_trip(order, rng):
    identity = TruncatedSeries.identity(order, "exact")
    for _ in range(10):
        f = random_vanishing(rng, order, c1_nonzero=True)
        g = f.invert_composition()
        _ensure(f.compose(g) == identity, "f(g) != z")
        _ensure(g.compose(f) == identity, "g(f) != z")
    return f"10 cases at order {order}"


def reciprocals(order, rng):
    one = TruncatedSeries.constant(1, order, "exact")
    for _ in range(10):
        f = random_headed(rng, order)
        _ensure(f * f.reciprocal() == one, "f/f != 1")
    return f"10 cases at order {order}"


def boxed_unit_and_associativity(order, rng):
    n = min(order, 5)
    unit = TruncatedSeries.identity(n, "exact")
    for _ in range(5):
        f = random_vanishing(rng, n)
        g = random_vanishing(rng, n)
        h = random_vanishing(rng, n)
        _ensure(boxed_convolution(f, unit) == f, "z is not a unit")
        left = boxed_convolution(boxed_convolution(f, g), h)
        right = boxed_convolution(f, boxed_convolution(g, h))
        _ensure(left == right, "not associative")
    return f"5 cases at order {n}"


# -- cumulants ----------------------------------------------------------------


def psi_round_trips(order, rng):
    pairs = [(random_vanishing(rng, order), random_vanishing(rng, order)) for _ in range(10)]
    for m, r in pairs + [(_FLAT, _FLAT)]:
        _ensure(moments_from_free_cumulants(free_cumulants_from_moments(m)) == m, "m -> R -> m")
        _ensure(free_cumulants_from_moments(moments_from_free_cumulants(r)) == r, "R -> m -> R")
    return f"10 cases at order {order}, and m_1 = 0"


def phi_round_trips(order, rng):
    pairs = [(random_vanishing(rng, order), random_vanishing(rng, order)) for _ in range(10)]
    for m, M in pairs + [(_FLAT, _FLAT_PARTNER), (_FLAT_PARTNER, _FLAT)]:
        cr = cfree_cumulants_from_moments(M, m)
        _ensure(phi_moments_from_cfree_cumulants(cr, m) == M, "M -> cR -> M")
    return f"10 cases at order {order}, and m_1 = 0"


def closed_forms_vs_partition_sums(order, rng):
    n = min(order, 9)
    for _ in range(5):
        r = random_vanishing(rng, n)
        cr = random_vanishing(rng, n)
        m = moments_from_free_cumulants(r)
        _ensure(m == moments_from_free_cumulants_nc_sum(r), "psi closed form != partition sum")
        _ensure(
            phi_moments_from_cfree_cumulants(cr, m) == phi_moments_nc_sum(cr, r),
            "phi closed form != partition sum",
        )
    return f"5 cases at order {n}"


def product_cumulants(order, rng):
    n = min(order, 6)
    for _ in range(5):
        rx = random_vanishing(rng, n)
        ry = random_vanishing(rng, n)
        via_boxed = boxed_convolution(rx, ry)
        for k in range(1, n + 1):
            _ensure(via_boxed.coeffs[k] == product_psi_cumulants(rx, ry, k), f"order {k}")
    return f"5 cases, orders 1..{n}"


def product_composition_formula(order, rng):
    # The paper's closed formula for the phi-cumulants of a product, through
    # the singleton-restricted boxed convolution, against the bundle product.
    n = min(order, 6)
    for _ in range(5):
        x, y = (
            TransformBundle.from_cumulants(random_vanishing(rng, n), random_vanishing(rng, n, c1_nonzero=True))
            for _ in range(2)
        )
        _ensure(cfree_product_cumulant_series(x, y) == x.multiply(y).cR.shift_down(), "composition formula != product")
    return f"5 cases at order {n}"


# -- transforms ---------------------------------------------------------------


def moment_round_trips(order, rng):
    for _ in range(10):
        m = random_vanishing(rng, order, c1_nonzero=True)
        M = random_vanishing(rng, order)
        _ensure(moments_from_t(t_transform(m)) == m, "m -> t -> m")
        _ensure(phi_moments_from_ct(ct_transform(M, m), m) == M, "M -> ct -> M")
        t = random_headed(rng, order - 1)
        ct = random_headed(rng, order - 1)
        m_t = moments_from_t(t)
        _ensure(t_transform(m_t) == t, "t -> m -> t")
        _ensure(ct_transform(phi_moments_from_ct(ct, m_t), m_t) == ct, "ct -> M -> ct")
    return f"10 cases at order {order}, from moments and from transforms"


def linked_block_sums(order, rng):
    n = min(order, 8)
    short = max(n - 2, 1)
    for _ in range(3):
        t = random_headed(rng, n - 1)
        ct = random_headed(rng, n - 1)
        m = moments_from_t(t)
        M = phi_moments_from_ct(ct, m)
        _ensure(psi_moments_via_linked_blocks(t) == m, "psi linked-block sum")
        _ensure(phi_moments_via_linked_blocks(ct, t) == M, "phi linked-block sum")
        _ensure(t_transform(m) == t, "t -> m -> t")
        _ensure(ct_transform(M, m) == ct, "ct -> M -> ct")
        _ensure(
            psi_moments_via_linked_blocks(t, n_max=short) == m.truncate(short),
            "psi linked-block sum, truncated",
        )
        _ensure(
            phi_moments_via_linked_blocks(ct, t, n_max=short) == M.truncate(short),
            "phi linked-block sum, truncated",
        )
    return f"3 cases at order {n}"


def partition_product(x, y):
    """Phi- and psi-moments of the product of two exact bundles, from the product cumulants' partition sums.

    R and cR revert z(1 + m), so no first moment needs to be invertible.
    """
    n = x.order
    r = TruncatedSeries.exact([0] + [product_psi_cumulants(x.R, y.R, k) for k in range(1, n + 1)])
    cr = TruncatedSeries.exact([0] + [product_phi_cumulants(x, y, k) for k in range(1, n + 1)])
    m = moments_from_free_cumulants(r)
    return phi_moments_from_cfree_cumulants(cr, m), m


def multiplicativity(order, rng):
    n = min(order, 5)
    for _ in range(2):
        mx = random_vanishing(rng, n, c1_nonzero=True)
        Mx = random_vanishing(rng, n)
        my = random_vanishing(rng, n, c1_nonzero=True)
        My = random_vanishing(rng, n)
        bx = TransformBundle.from_moments(Mx, mx)
        by = TransformBundle.from_moments(My, my)
        M_xy, m_xy = partition_product(bx, by)
        bxy = TransformBundle.from_moments(M_xy, m_xy)
        _ensure(bxy.T == bx.T * by.T, "t-series not multiplicative")
        _ensure(bxy.cT == bx.cT * by.cT, "ct-series not multiplicative")
        _ensure(bxy.Sigma == bx.Sigma * by.Sigma, "sigma-series not multiplicative")
        product = bx.multiply(by)
        _ensure(product.m == m_xy and product.M == M_xy, "bundle product != partition route")
    return f"2 cases at order {n}"


def sigma_value(order, rng):
    for _ in range(5):
        m = random_vanishing(rng, order, c1_nonzero=True)
        M = random_vanishing(rng, order)
        sigma = sigma_series(M, m)
        _ensure(sigma.order == order - 1, "sigma order != order - 1")
        _ensure(sigma.coeffs[0] == M.coeffs[1], "sigma(0) != first phi moment")
    return f"5 cases at order {order}"


# -- measures -----------------------------------------------------------------


def point_mass_laws(order, rng):
    a = CircleMeasure.point_mass(Fraction(1, 4))
    b = CircleMeasure.point_mass(Fraction(1, 2))
    want = CircleMeasure.point_mass(Fraction(3, 4)).moment_series(order)
    _ensure(boolean_convolve(a, b, order).moment_series(order) == want, "boolean point masses")
    _ensure(free_multiplicative_convolve(a, b, order).moment_series(order) == want, "free point masses")
    # Over uniform psi-laws the c-free product has the phi-moments (m_1 m_1')^k.
    # Given as moment lists, these quarter-turn laws have dyadic moments, which
    # the approx product, whose subordination functions vanish here, rounds
    # nowhere below order 16.
    n = min(order, 16)
    laws = [
        CircleMeasure.moment_seq(law.moment_series(n).coeffs[1:])
        for law in (
            CircleMeasure.atomic([(0, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))]),
            CircleMeasure.atomic([(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 4))]),
        )
    ]
    c = laws[0].moment_series(1).coeffs[1] * laws[1].moment_series(1).coeffs[1]
    powers = [c]
    while len(powers) < n:
        powers.append(powers[-1] * c)
    uniform = [MeasurePair(law, CircleMeasure.haar()) for law in laws]
    exact = cfree_multiplicative_convolve(*uniform, n, "exact").mu.moment_series(n)
    _ensure(exact == TruncatedSeries.exact([0, *powers]), "uniform pair, exact")
    approx = cfree_multiplicative_convolve(*uniform, n, "approx").mu.moment_series(n, "approx")
    gap = max(abs(x - y) / abs(y) for x, y in zip(approx.coeffs[1:], exact.to_approx().coeffs[1:]))
    _ensure(gap <= 1e-15, f"uniform pair, approx against exact: relative gap {gap}")
    # Poisson laws with Gaussian-rational parameters run exactly: m_k = alpha^k,
    # and the boolean, free and pair products all multiply the parameters.
    alpha, beta = ComplexRational(Fraction(1, 2), Fraction(1, 3)), ComplexRational(Fraction(-1, 4), Fraction(1, 5))
    p_a, p_b, p_aa = (CircleMeasure.poisson(x) for x in (alpha, beta, alpha * alpha))
    want = CircleMeasure.poisson(alpha * beta).moment_series(order)
    _ensure(boolean_convolve(p_a, p_b, order).moment_series(order) == want, "boolean Poisson laws")
    _ensure(free_multiplicative_convolve(p_a, p_b, order).moment_series(order) == want, "free Poisson laws")
    pair = cfree_multiplicative_convolve(MeasurePair(p_a, p_b), MeasurePair(p_b, p_aa), order)
    _ensure(pair.mu.moment_series(order) == want, "Poisson pairs, phi-law")
    psi = CircleMeasure.poisson(alpha * alpha * beta).moment_series(order)
    _ensure(pair.nu.moment_series(order) == psi, "Poisson pairs, psi-law")
    return "quarter-turn point masses, exact"


def herglotz_constants(order, rng):
    s = 0.7
    g = IdGenerator(1, CircleMeasure.atomic([(0, Fraction(7, 10))], probability=False))
    series = herglotz_exp(g, -1, order)
    _ensure(abs(series.coeffs[0] - math.exp(-s)) < 1e-13, "constant term")
    _ensure(abs(series.coeffs[1] + 2 * s * math.exp(-s)) < 1e-13, "first coefficient")
    first = herglotz_exp(g, -1, 1)
    _ensure(first.order == 1 and abs(first.coeffs[1] - series.coeffs[1]) < 1e-13, "order 1 keeps sigma's moment")
    flipped = herglotz_exp(g, 1, order) * series
    _ensure(
        all(abs(c) < 1e-12 for c in flipped.coeffs[1:])
        and abs(flipped.coeffs[0] - 1) < 1e-12,
        "sign flip did not cancel",
    )
    return "mass 0.7 at angle zero"


def idiv_roots(order, rng):
    g = IdGenerator(
        cmath.exp(-0.2j),
        CircleMeasure.atomic(
            [(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 4), Fraction(1, 10))],
            probability=False,
        ),
    )
    n_ord = min(order, 6)
    law = idiv_boolean_measure(g, n_ord).moment_series(n_ord, "approx")
    first = idiv_boolean_measure(g, 1).moment_series(1, "approx")
    _ensure(abs(first.coeffs[1] - law.coeffs[1]) < 1e-13, "boolean law at order 1")
    whole = b_series(law)
    for n in (2, 3, 5):
        root_law = idiv_boolean_measure(g.scaled(Fraction(1, n)), n_ord)
        root = b_series(root_law.moment_series(n_ord, "approx"))
        gap = max(abs(x - y) for x, y in zip(whole.coeffs, root.pow_int(n).coeffs))
        _ensure(gap < 1e-10, f"n={n} gap {gap}")
    free_law = idiv_free_measure(IdGenerator(cmath.exp(0.4j)), n_ord)
    ok = all(
        abs(c - cmath.exp(-0.4j) ** k) < 1e-13
        for k, c in enumerate(free_law.moment_series(n_ord, "approx").coeffs[1:], 1)
    )
    _ensure(ok, "trivial free generator")
    return "boolean roots n=2,3,5 and the trivial free generator"


def semigroup(order, rng):
    n_ord = min(order, 6)
    gen_nu = IdGenerator(
        cmath.exp(0.2j),
        CircleMeasure.atomic([(Fraction(1, 3), Fraction(1, 4))], probability=False),
    )
    gen_pair = IdGenerator(
        cmath.exp(-0.1j),
        CircleMeasure.atomic([(0, Fraction(1, 5))], probability=False),
    )
    target = herglotz_exp(gen_pair, -1, n_ord - 1)
    half = semigroup_pair(gen_nu, target, Fraction(1, 2), n_ord)
    squared = cfree_multiplicative_convolve(half, half, n_ord)
    whole = semigroup_pair(gen_nu, target, 1, n_ord)
    gap = 0.0
    for got, want in ((squared.mu, whole.mu), (squared.nu, whole.nu)):
        xs = got.moment_series(n_ord, "approx").coeffs
        ys = want.moment_series(n_ord, "approx").coeffs
        gap = max(gap, max(abs(x - y) for x, y in zip(xs, ys)))
    _ensure(gap < 1e-9, f"half+half gap {gap}")
    start = semigroup_pair(gen_nu, target, 0, n_ord)
    _ensure(start.mu == CircleMeasure.point_mass(0), "time zero")
    return f"half+half = whole at order {n_ord}, gap {gap:.1e}"


def positivity(order, rng):
    twelfth = [Fraction(k, 12) for k in range(12)]
    for _ in range(3):
        a = _random_atomic(rng, twelfth)
        b = _random_atomic(rng, twelfth)
        for law in (
            boolean_convolve(a, b, order),
            free_multiplicative_convolve(a, b, order),
            cfree_multiplicative_convolve(MeasurePair(a, b), MeasurePair(b, a), order).mu,
        ):
            ok, smallest = toeplitz_psd_check(law.moment_series(order).to_approx().coeffs[1:], tolerance=1e-7)
            _ensure(ok, f"smallest pivot {smallest}")
    bad, _ = toeplitz_psd_check([2, 0, 0, 0])
    _ensure(not bad, "an impossible moment list passed")
    return f"3 random convolution triples at order {order}"


def t_route_product(x, y):
    """Phi- and psi-moments of the product of two bundles, by the T route."""
    product = x.multiply(y)
    return product.M, product.m


def exact_products_vs_independent_routes(order, rng):
    # Exact free and pair products go through subordination.  Where the first
    # psi-moments are invertible they must be the T route's; at order <= 6
    # they must be the partition sums', also on psi-laws with m_1 = 0, the
    # uniform law among them, met with other laws.
    quarter = [Fraction(k, 4) for k in range(4)]
    haar = CircleMeasure.haar()
    halves = CircleMeasure.atomic([(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])  # m_1 = 0, m_2 = 1
    vanishing = CircleMeasure.atomic([(t, Fraction(1, 4)) for t in quarter]), halves, haar
    n = min(order, 6)
    for _ in range(2):
        a, b, c, d = (_random_atomic(rng, quarter) for _ in range(4))
        cases = [(order, t_route_product, (a, b), (c, d)), (order, t_route_product, (a, a), (c, c))]
        for psi in vanishing:
            cases += [(n, partition_product, *xy) for xy in (((a, psi), (c, d)), ((b, d), (c, psi)), ((a, psi), (c, haar)))]
        for k, route, *laws in cases:
            pairs = [MeasurePair(*pair) for pair in laws]
            (M1, m1), (M2, m2) = ((p.mu.moment_series(k), p.nu.moment_series(k)) for p in pairs)
            M, m = route(TransformBundle(M1, m1), TransformBundle(M2, m2))
            got = cfree_multiplicative_convolve(*pairs, k)
            _ensure((got.mu.moment_series(k), got.nu.moment_series(k)) == (M, m), f"pair product != {route.__name__}")
            free = free_multiplicative_convolve(pairs[0].nu, pairs[1].nu, k).moment_series(k)
            _ensure(free == m, f"free product != {route.__name__}")
    return f"8 products against the T route at order {order}, 36 against partition sums at order {n}"


def approx_products_vs_exact(order, rng):
    # Approx free and pair products go through subordination: on quarter-turn
    # laws they must agree with the exact T route at order 24, where the T
    # route in doubles lost the result.
    n = 24
    quarter = [Fraction(k, 4) for k in range(4)]
    gap = 0.0
    for _ in range(2):
        a, b, c, d = (_random_atomic(rng, quarter) for _ in range(4))
        pairs = MeasurePair(a, b), MeasurePair(c, d)
        (M1, m1), (M2, m2) = ((p.mu.moment_series(n), p.nu.moment_series(n)) for p in pairs)
        M, m = t_route_product(TransformBundle(M1, m1), TransformBundle(M2, m2))
        approx = cfree_multiplicative_convolve(*pairs, n, "approx")
        free = moments_from_t(t_transform(M1) * t_transform(M2))
        laws = [(M, approx.mu), (m, approx.nu), (free, free_multiplicative_convolve(a, c, n, "approx"))]
        for want, got in laws:
            xs, ys = want.to_approx().coeffs, got.moment_series(n, "approx").coeffs
            gap = max(gap, *(abs(x - y) for x, y in zip(xs, ys)))
    _ensure(gap <= 1e-13, f"approx against exact: gap {gap:.1e}")
    return f"2 pair and free products at order {n}, gap {gap:.1e}"


def limit_trend(order, rng):
    report = limit_experiment(Fraction(1, 2), Fraction(1, 4), (2, 4), 3)
    sup = {}
    for row in report["rows"]:
        sup[row["n"]] = max(sup.get(row["n"], 0.0), row["gap"])
    _ensure(sup[2] > sup[4], f"gap did not shrink: {sup}")
    fitted = report["summary"]["fit"]["sigma_moments"]
    _ensure(len(fitted) == 3, f"{len(fitted)} fitted sigma moments, not 3")
    return f"sup gap {sup[2]:.3f} -> {sup[4]:.3f}"


# -- Registry -----------------------------------------------------------------

CHECKS = (
    ("partitions", "nc counts", nc_counts),
    ("partitions", "ncl counts vs block-family search", ncl_vs_block_families),
    ("partitions", "parity class counts", parity_counts),
    ("partitions", "complement size identity", complement_sizes),
    ("partitions", "complement vs maximality search", complement_vs_search),
    ("series", "compositional inverse round trip", inverse_round_trip),
    ("series", "reciprocal", reciprocals),
    ("series", "boxed convolution unit/associativity", boxed_unit_and_associativity),
    ("cumulants", "psi round trips", psi_round_trips),
    ("cumulants", "phi round trips", phi_round_trips),
    ("cumulants", "closed forms vs partition sums", closed_forms_vs_partition_sums),
    ("cumulants", "product cumulants vs boxed convolution", product_cumulants),
    ("cumulants", "product cumulant composition formula", product_composition_formula),
    ("transforms", "moment round trips", moment_round_trips),
    ("transforms", "linked-block moment sums", linked_block_sums),
    ("transforms", "pair multiplicativity vs partition sums", multiplicativity),
    ("transforms", "sigma value at zero", sigma_value),
    ("measures", "point-mass convolutions", point_mass_laws),
    ("measures", "herglotz exponential constants", herglotz_constants),
    ("measures", "infinitely divisible roots", idiv_roots),
    ("measures", "semigroup half step", semigroup),
    ("measures", "toeplitz positivity gate", positivity),
    ("measures", "exact products vs T route, partition sums", exact_products_vs_independent_routes),
    ("measures", "approx products vs exact T route", approx_products_vs_exact),
    ("measures", "limit experiment trend", limit_trend),
)
SUITES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS))


def run(suite="all", order=DEFAULT_ORDER, seed=DEFAULT_SEED):
    """Run one suite (or all) and return ("suite: name", ok, detail) rows."""
    if suite != "all" and suite not in SUITES:
        raise ArgumentError(f"unknown suite {suite!r}; pick from {SUITES} or 'all'")
    if order < 2:
        raise ArgumentError("verification needs order >= 2")
    rows = []
    for check_suite, name, check in CHECKS:
        if suite not in ("all", check_suite):
            continue
        label = f"{check_suite}: {name}"
        try:
            rows.append((label, True, check(order, check_rng(seed, check_suite, name))))
        except Exception as exc:  # a broken check is a finding, not a crash
            rows.append((label, False, f"{type(exc).__name__}: {exc}"))
    return rows
