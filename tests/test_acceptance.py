"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail summary line.  Tolerances: criteria 1-5
are exact (zero tolerance) up to their stated orders, criterion 6 uses 1e-9,
criterion 7 uses strict decrease plus agreement within 1e-2 relative between
the extrapolated n * gap and its derived 1/n constant, criterion 8 gates
moment matrices at 1e-7.
"""
import random
import time
from fractions import Fraction

from cfreeconv.measures import (
    CircleMeasure,
    IdGenerator,
    MeasurePair,
    boolean_convolve,
    cfree_multiplicative_convolve,
    free_multiplicative_convolve,
    herglotz_exp,
    limit_experiment,
    semigroup_pair,
    toeplitz_psd_check,
)
from cfreeconv.oracles import (
    Kappa,
    boxed_convolution,
    boxed_convolution_checked,
    catalan_numbers,
    cfree_product_cumulant_series,
    group_nc_s_by_join,
    kappa,
    ncl_block_families,
    phi_moments_via_linked_blocks,
    product_phi_cumulants,
    product_psi_cumulants,
    psi_moments_via_linked_blocks,
)
from cfreeconv.partitions import (
    enumerate_nc,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    kreweras,
)
from cfreeconv.series import ComplexRational, TruncatedSeries
from cfreeconv.transforms import (
    TransformBundle,
    b_series,
    cfree_cumulants_from_moments,
    ct_transform,
    eta,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    moments_from_t,
    phi_moments_from_cfree_cumulants,
    phi_moments_from_ct,
    t_transform,
)
from cfreeconv.verify import random_vanishing

import cmath
import math


def q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def moment_gap(a, b, order):
    xs = a.moment_series(order, "approx").coeffs
    ys = b.moment_series(order, "approx").coeffs
    return max(abs(x - y) for x, y in zip(xs, ys))


def pair_gap(a, b, order):
    return max(moment_gap(a.mu, b.mu, order), moment_gap(a.nu, b.nu, order))


def test_criterion_1_enumeration_counts():
    start = time.monotonic()
    nc_counts = [len(enumerate_nc(n)) for n in range(1, 9)]
    assert nc_counts == [1, 2, 5, 14, 42, 132, 429, 1430]
    assert nc_counts == catalan_numbers(8)
    ncl_counts = [len(enumerate_ncl(n)) for n in range(1, 9)]
    assert ncl_counts == [len(ncl_block_families(n)) for n in range(1, 9)]
    assert len(enumerate_nc_0(4)) == 2
    assert len(enumerate_nc_s(4)) == 3
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"criterion 1: PASS - nc 1..8 = {nc_counts}, ncl 1..8 = {ncl_counts}, "
        f"nc_0(4)=2, nc_s(4)=3, {elapsed:.1f}s"
    )


def test_criterion_2_exact_identity_suite():
    rng = random.Random(202)

    for _ in range(100):
        m = random_vanishing(rng, 8)
        M = random_vanishing(rng, 8)
        assert moments_from_free_cumulants(free_cumulants_from_moments(m)) == m
        r = random_vanishing(rng, 8)
        assert free_cumulants_from_moments(moments_from_free_cumulants(r)) == r
        assert phi_moments_from_cfree_cumulants(cfree_cumulants_from_moments(M, m), m) == M

    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert len(p) + len(kreweras(p)) == n + 1

    for _ in range(100):
        f = random_vanishing(rng, 6, c1_nonzero=True)
        g = random_vanishing(rng, 6)
        lhs = f.invert_composition().compose(boxed_convolution(f, g))
        assert lhs == boxed_convolution_checked(f, g).scale(q(1) / f.coeffs[1])

    for _ in range(100):
        rx = random_vanishing(rng, 5)
        ry = random_vanishing(rng, 5)
        via_boxed = boxed_convolution(rx, ry)
        for k in range(1, 6):
            assert via_boxed.coeffs[k] == product_psi_cumulants(rx, ry, k)

    for _ in range(3):
        x = TransformBundle.from_cumulants(random_vanishing(rng, 4), random_vanishing(rng, 4))
        y = TransformBundle.from_cumulants(random_vanishing(rng, 4), random_vanishing(rng, 4))
        for n in range(1, 5):
            r_xy = TruncatedSeries.exact(
                [0] + [product_psi_cumulants(x.R, y.R, k) for k in range(1, n + 1)]
            )
            cr_xy = TruncatedSeries.exact(
                [0] + [product_phi_cumulants(x, y, k) for k in range(1, n + 1)]
            )
            xy = TransformBundle.from_cumulants(cr_xy, r_xy)
            fibers = group_nc_s_by_join(2 * n)
            assert set(fibers) == set(enumerate_nc(n))
            inter = [x if i % 2 == 0 else y for i in range(2 * n)]
            for base, sigmas in fibers.items():
                assert kappa(base, [xy] * n) == sum(
                    (kappa(s, inter) for s in sigmas), start=q(0)
                )
                assert Kappa(base, [xy] * n) == sum(
                    (Kappa(s, inter) for s in sigmas), start=q(0)
                )

    print(
        "criterion 2: PASS - 100-case round trips (order 8), complement size "
        "identity (n<=7), 100-case singleton-restricted convolution identity "
        "(order 6), 100-case product cumulants vs parity sums (n<=5), fiber "
        "decomposition on all of nc(n), n<=4; all exact"
    )


def test_criterion_3_headline_multiplicativity():
    rng = random.Random(303)
    for _ in range(25):
        mx = random_vanishing(rng, 5, c1_nonzero=True)
        Mx = random_vanishing(rng, 5)
        my = random_vanishing(rng, 5, c1_nonzero=True)
        My = random_vanishing(rng, 5)
        bx = TransformBundle.from_moments(Mx, mx)
        by = TransformBundle.from_moments(My, my)
        r_xy = TruncatedSeries.exact(
            [0] + [product_psi_cumulants(bx.R, by.R, k) for k in range(1, 6)]
        )
        cr_xy = TruncatedSeries.exact(
            [0] + [product_phi_cumulants(bx, by, k) for k in range(1, 6)]
        )
        m_xy = moments_from_free_cumulants(r_xy)
        M_xy = phi_moments_from_cfree_cumulants(cr_xy, m_xy)
        bxy = TransformBundle.from_moments(M_xy, m_xy)
        assert bxy.T == bx.T * by.T
        assert bxy.cT == bx.cT * by.cT
        closed = cfree_product_cumulant_series(bx, by, order=4)
        for n in range(1, 6):
            assert closed.coeffs[n - 1] == product_phi_cumulants(bx, by, n)
    print(
        "criterion 3: PASS - 25 exact pairs: t- and ct-series multiply "
        "coefficient-exactly to order 5 against the parity-sum product data; "
        "closed product formula matches to order 4"
    )


def test_criterion_4_linked_block_three_way_oracle():
    rng = random.Random(404)
    for _ in range(3):
        m = random_vanishing(rng, 8, c1_nonzero=True)
        M = random_vanishing(rng, 8)
        t = t_transform(m)
        ct = ct_transform(M, m)
        assert psi_moments_via_linked_blocks(t, n_max=8) == m
        assert moments_from_t(t) == m
        assert phi_moments_via_linked_blocks(ct, t, n_max=8) == M
        assert phi_moments_from_ct(ct, m) == M
        t0, t1, t2 = t.coeffs[0], t.coeffs[1], t.coeffs[2]
        assert m.coeffs[3] == t0**3 + q(3) * t0**2 * t1 + t0 * t1**2 + t0**2 * t2
        ct0, ct1 = ct.coeffs[0], ct.coeffs[1]
        assert M.coeffs[2] == t0 * ct1 + ct0**2
    print(
        "criterion 4: PASS - linked-block sums, closed-form moment recovery, and "
        "round trips agree exactly on both states to n=8; cubic and quadratic "
        "witnesses hold"
    )


def test_criterion_5_sigma_dual_route():
    rng = random.Random(505)
    geometric = TruncatedSeries.exact([0] + [1] * 8)
    for _ in range(25):
        m = random_vanishing(rng, 9, c1_nonzero=True)
        M = random_vanishing(rng, 9)
        bundle = TransformBundle.from_moments(M, m)
        via_ct = bundle.cT.compose(geometric)
        via_b = b_series(M).compose(eta(m).invert_composition().truncate(8))
        assert via_ct == via_b
        assert via_ct.order == 8
        assert via_ct.coeffs[0] == M.coeffs[1]

    lam = q(0, 1)  # quarter turn
    mu = CircleMeasure.point_mass(Fraction(1, 4))
    nu = CircleMeasure.atomic([(0, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 4))])
    M = mu.moment_series(9)
    m = nu.moment_series(9)
    sigma = TransformBundle.from_moments(M, m).cT.compose(geometric)
    assert sigma.coeffs[0] == lam
    assert all(not c for c in sigma.coeffs[1:])
    print(
        "criterion 5: PASS - both sigma routes agree exactly to order 8 on 25 "
        "cases, sigma(0) is the first phi-moment, and a point mass gives a "
        "constant sigma"
    )


def test_criterion_6_infinite_divisibility():
    gen_nu = IdGenerator(
        cmath.exp(0.2j),
        CircleMeasure.atomic([(Fraction(1, 3), Fraction(1, 5))], probability=False),
    )
    gen_mu = IdGenerator(
        cmath.exp(-0.1j),
        CircleMeasure.atomic([(0, Fraction(1, 4))], probability=False),
    )

    target6 = herglotz_exp(gen_mu, -1, 5)
    whole = semigroup_pair(gen_nu, target6, 1, 6)
    worst_root = 0.0
    for n in range(2, 6):
        root = semigroup_pair(gen_nu, target6, Fraction(1, n), 6)
        acc = root
        for _ in range(n - 1):
            acc = cfree_multiplicative_convolve(acc, root, 6)
        worst_root = max(worst_root, pair_gap(acc, whole, 6))
    assert worst_root < 1e-9

    target8 = herglotz_exp(gen_mu, -1, 7)
    times = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    at = {t: semigroup_pair(gen_nu, target8, t, 8) for t in times}
    worst_law = 0.0
    for s in times:
        for t in times:
            target_sum = semigroup_pair(gen_nu, target8, s + t, 8)
            got = cfree_multiplicative_convolve(at[s], at[t], 8)
            worst_law = max(worst_law, pair_gap(got, target_sum, 8))
    assert worst_law < 1e-9

    mu1 = CircleMeasure.atomic([(0, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 4))])
    mu2 = CircleMeasure.atomic([(0, Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 3))])
    haar = CircleMeasure.haar()
    out = cfree_multiplicative_convolve(MeasurePair(mu1, haar), MeasurePair(mu2, haar), 6)
    assert out.nu == haar
    c1 = mu1.moment_series(1).coeffs[1]
    c2 = mu2.moment_series(1).coeffs[1]
    want = [(c1 * c2) ** k for k in range(1, 7)]
    assert list(out.mu.moment_series(6).coeffs[1:]) == want
    print(
        f"criterion 6: PASS - n-th roots (n<=5) recombine within {worst_root:.1e} "
        f"at order 6, semigroup law holds within {worst_law:.1e} at order 8, "
        "uniform-second-component products are exact powers"
    )


def list_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def list_exp(a):
    out = [cmath.exp(a[0])] + [0j] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def limit_gap_constant(s, omega_turns, order):
    """Coefficients 0..order of P = lim n * (Sigma_n - B_n), from s and omega.

    Each factor (1 - w) delta_1 + w delta_omega, w = s/n, has
    eta = z + w g + O(w^2) with g = (1 - z)^2 sum_{k>=1} (omega^k - 1) z^k.
    Since Sigma = B o eta^-1 and B = eta/z, Sigma - B = -w^2 g (g/z)' + O(w^3)
    per factor; both transforms are multiplicative over the n factors, so
    Sigma_n - B_n = P/n + O(1/n^2) with P = -s^2 exp(s g/z) g (g/z)'.
    Plain complex lists: no reversion, composition or convolution.
    """
    s = float(s)
    omega = cmath.exp(1j * math.tau * float(omega_turns))
    size = order + 2
    h = [0j] + [omega ** k - 1 for k in range(1, size)]
    g = list_mul([1, -2, 1] + [0] * (size - 3), h)
    g_over_z = g[1:] + [0j]
    g_over_z_prime = [(k + 1) * g_over_z[k + 1] for k in range(size - 1)] + [0j]
    p = list_mul(list_mul(list_exp([s * c for c in g_over_z]), g), g_over_z_prime)
    return [-s * s * c for c in p[: order + 1]]


def test_criterion_7_limit_experiment_trend():
    s, omega_turns, order = Fraction(1, 2), Fraction(1, 4), 4
    start = time.monotonic()
    sizes = (4, 8, 16, 32)
    report = limit_experiment(s, omega_turns, sizes, order)
    elapsed = time.monotonic() - start

    sup = {n: 0.0 for n in sizes}
    gap = {}
    for row in report["rows"]:
        sup[row["n"]] = max(sup[row["n"]], row["gap"])
        gap[row["n"], row["j"]] = row["gap"]
    decreasing = all(sup[a] > sup[b] for a, b in zip(sizes, sizes[1:]))

    summary = report["summary"]
    fit = summary["fit"]
    gamma_dist = [abs(summary["gamma_n"][n] - fit["gamma"]) for n in sizes]
    sigma_dist = [
        [abs(summary["sigma_n_moments"][n][j] - fit["sigma_moments"][j]) for n in sizes]
        for j in (0, 1)
    ]
    monotone = all(
        seq[k + 1] <= seq[k] + 1e-12
        for seq in [gamma_dist] + sigma_dist
        for k in range(len(seq) - 1)
    )

    # n * gap_{n,j} = |P_j| + a/n + b/n^2 + ..., analytic in w = s/n; the
    # three-point Richardson step over n = 8, 16, 32 cancels the 1/n and 1/n^2
    # terms, and the limit must match the derived constant to 1e-2 relative.
    derived = [abs(c) for c in limit_gap_constant(s, omega_turns, order)]
    scaled = {j: {n: n * gap[n, j] for n in sizes} for j in range(1, order + 1)}
    limit = {j: (8 * x[32] - 6 * x[16] + x[8]) / 3 for j, x in scaled.items()}
    rel_err = {j: abs(limit[j] - derived[j]) / derived[j] for j in limit}
    on_rate = all(err <= 1e-2 for err in rel_err.values())
    below_cap_from = math.floor(max(derived) / 1e-2) + 1

    status = "PASS" if (decreasing and monotone and on_rate and elapsed < 120) else "FAIL"
    print(
        f"criterion 7: {status} - sup gaps {', '.join(f'n={n}: {sup[n]:.4f}' for n in sizes)}; "
        f"strictly decreasing: {decreasing}; parameters monotone toward fit: {monotone}; "
        f"derived |P_j| j=1..{order}: {', '.join(f'{derived[j]:.4f}' for j in limit)}; "
        "n*gap: "
        + "; ".join(
            f"j={j} " + ", ".join(f"{x[n]:.4f}" for n in sizes) for j, x in scaled.items()
        )
        + f"; extrapolated L_j: {', '.join(f'{limit[j]:.4f}' for j in limit)} "
        f"(worst relative error {max(rel_err.values()):.1e}, within 1e-2: {on_rate}); "
        f"{max(derived):.4f}/n < 1e-2 from n={below_cap_from}; runtime {elapsed:.2f}s"
    )
    assert decreasing
    assert monotone
    assert elapsed < 120
    assert on_rate, (
        f"extrapolated n * gap {limit} differs from the derived 1/n constants "
        f"{derived[1:]} by more than 1e-2 relative ({rel_err})"
    )


def test_limit_experiment_by_powers_reaches_the_derived_constant():
    # Rows cost O(log n) series products, so the rate is visible far out:
    # n = 2, 4, ..., 4096.  Richardson over the last three sizes must land on
    # |P_j| (measured: 1.1e-9 relative at worst), and n * gap must approach
    # it strictly at every step.
    s, omega_turns, order = Fraction(1, 2), Fraction(1, 4), 4
    sizes = tuple(2 ** k for k in range(1, 13))
    report = limit_experiment(s, omega_turns, sizes, order)
    gap = {(row["n"], row["j"]): row["gap"] for row in report["rows"]}
    derived = [abs(c) for c in limit_gap_constant(s, omega_turns, order)]
    for j in range(1, order + 1):
        scaled = {n: n * gap[n, j] for n in sizes}
        limit = (8 * scaled[4096] - 6 * scaled[2048] + scaled[1024]) / 3
        assert abs(limit - derived[j]) <= 1e-6 * derived[j], (j, limit, derived[j])
        distance = [abs(scaled[n] - derived[j]) for n in sizes]
        assert all(a > b for a, b in zip(distance, distance[1:])), (j, distance)


def test_criterion_8_toeplitz_gate():
    corpus = [
        CircleMeasure.atomic([(0, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 4))]),
        CircleMeasure.atomic([(0, Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 3))]),
        CircleMeasure.point_mass(Fraction(1, 4)),
        CircleMeasure.atomic([(Fraction(1, 12), Fraction(1, 2)), (Fraction(11, 12), Fraction(1, 2))]),
        CircleMeasure.atomic(
            [(0, Fraction(5, 8)), (Fraction(1, 3), Fraction(1, 4)), (Fraction(2, 3), Fraction(1, 8))]
        ),
    ]
    checked = 0
    worst = 1.0
    for a in corpus:
        for b in corpus:
            outputs = [
                boolean_convolve(a, b, 6),
                free_multiplicative_convolve(a, b, 6),
            ]
            pair = cfree_multiplicative_convolve(MeasurePair(a, b), MeasurePair(b, a), 6)
            outputs += [pair.mu, pair.nu]
            for law in outputs:
                ok, smallest = toeplitz_psd_check(law.moment_series(6).coeffs[1:], tolerance=1e-7)
                assert ok, f"eigenvalue {smallest} below -1e-7"
                worst = min(worst, smallest)
                checked += 1
    print(
        f"criterion 8: PASS - {checked} convolution outputs pass the moment-matrix "
        f"gate at 1e-7 (smallest eigenvalue seen {worst:.2e})"
    )
