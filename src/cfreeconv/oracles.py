"""The oracle layer: partition sums and brute-force references.

Two kinds of independent route live here, and nothing on the production
path imports them.  The brute-force references are written from the raw
definitions -- filter all set partitions on the crossing quadruple,
maximize over candidates for the complement, search block families
directly -- so the fast constructions in :mod:`partitions` have something
honest to be checked against.  The lattice join and the doubling give the
coupled family NC_0(2n) a second time, as the parity-constant partitions
whose join with the doubled singletons is the one-block partition, against
its construction from NC(n) and the Kreweras complement.  The partition sums restate the package's
identities as sums over non-crossing, parity-constant and linked
partitions: moments from cumulants, the boxed convolution, the cumulants
of a product, and moments from the t- and ct-series.  The test-suite and
``cfreeconv verify`` insist they agree with the closed forms in
:mod:`transforms`.

Those sums read only block sizes, so each runs over a table of distinct
coefficient products with their partition counts, built once per size by
enumerating and classifying every partition (:func:`_table`).  The counts
come from enumeration, never from a closed form, so the route stays
independent of what it checks.  An exact sum reads the Gaussian-integer
numerators of its series over the lcm of their denominators, so a row is a
product of integer pairs and no scalar is built per row; the sum is one
scalar, or one series, at the end.  The letter-dependent products
:func:`kappa`, :func:`Kappa` and :func:`word_cumulant` still go partition
by partition.  Sizes are small.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

from .errors import ArgumentError, DomainError, ResourceLimitError
from .partitions import (
    NC0_MAX,
    NCPartition,
    blocks_cross,
    enumerate_nc,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    kreweras,
    ncl_classify,
)
from .series import EXACT, ComplexRational, TruncatedSeries, _common_denominator, _one, _zero


def catalan_numbers(count):
    """The first ``count`` Catalan numbers C_1..C_count via the convolution recurrence."""
    c = [1]  # C_0
    for n in range(count):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c[1:]


def iter_set_partitions(n):
    """All set partitions of {1..n}, one per restricted-growth assignment."""

    def rec(k, labels, used):
        if k > n:
            blocks = [[] for _ in range(used)]
            for e, lab in enumerate(labels, start=1):
                blocks[lab].append(e)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(used + 1):
            yield from rec(k + 1, labels + [lab], max(used, lab + 1))

    yield from rec(1, [], 0)


def has_crossing_quadruple(blocks):
    """Literal test: some i < j < k < l with i,k in one block and j,l in another."""
    where = {}
    for idx, b in enumerate(blocks):
        for e in b:
            where[e] = idx
    elems = sorted(where)
    for i, j, k, l in combinations(elems, 4):
        if where[i] == where[k] and where[j] == where[l] and where[i] != where[j]:
            return True
    return False


def nc_by_filtering(n):
    """Non-crossing partitions of {1..n} as block tuples, by filtering everything."""
    return [
        tuple(sorted(blocks, key=lambda b: b[0]))
        for blocks in iter_set_partitions(n)
        if not has_crossing_quadruple(blocks)
    ]


def _interleaved_noncrossing(p_blocks, s_blocks, n):
    """Whether p on {1..n} and s on barred copies interleave without crossing.

    Element k sits at position 2k-1, its barred copy at position 2k.
    """
    combined = [tuple(2 * e - 1 for e in b) for b in p_blocks]
    combined += [tuple(2 * e for e in b) for b in s_blocks]
    return not has_crossing_quadruple(combined)


def kreweras_by_maximality(p):
    """The complement by its defining property: the coarsest partner.

    Scans every non-crossing candidate on the barred copies, keeps those
    whose interleaving with ``p`` stays non-crossing, and returns the unique
    one that every other candidate refines.
    """
    n = p.n
    valid = [
        s for s in nc_by_filtering(n) if _interleaved_noncrossing(p.blocks, s, n)
    ]

    def refines(a, b):
        return all(any(set(x) <= set(y) for y in b) for x in a)

    best = [s for s in valid if all(refines(t, s) for t in valid)]
    assert len(best) == 1, "complement is not unique; definition violated"
    return NCPartition(n, best[0])


def join_by_search(p, q):
    """Minimal non-crossing coarsening of both, found by scanning NC(n)."""

    def refines(a, b):
        return all(any(set(x) <= set(y) for y in b.blocks) for x in a.blocks)

    candidates = [
        NCPartition(p.n, blocks)
        for blocks in nc_by_filtering(p.n)
    ]
    uppers = [c for c in candidates if refines(p, c) and refines(q, c)]
    best = min(uppers, key=lambda c: -len(c.blocks))
    assert all(refines(best, c) for c in uppers), "upper bounds have no minimum"
    return best


def ncl_block_families(n):
    """Exhaustive search for linked block families on {1..n}.

    Builds families block by block in increasing order of block minima
    (minima are necessarily distinct), pruning on the defining conditions:
    blocks pairwise share at most one element, a shared element is the
    minimum of exactly one of its two blocks and both must have size two or
    more, no two blocks have a strict crossing quadruple, and every element
    ends up in one or two blocks.
    """
    out = []

    def extend(blocks, cover, last_min):
        uncovered = [e for e in range(1, n + 1) if cover[e] == 0]
        if not uncovered:
            out.append(tuple(sorted(blocks, key=lambda b: b[0])))
        limit = uncovered[0] if uncovered else n
        for m in range(last_min + 1, limit + 1):
            if cover[m] == 0:
                hang = False
            elif cover[m] == 1:
                host = next(b for b in blocks if m in b)
                if m == host[0]:
                    continue  # would be the minimum of both sharing blocks
                hang = True
            else:
                continue
            # candidate further members: to the right of m, coverable again
            pool = []
            for e in range(m + 1, n + 1):
                if cover[e] == 0:
                    pool.append(e)
                elif cover[e] == 1:
                    owner = next(b for b in blocks if e in b)
                    if e == owner[0] and len(owner) >= 2:
                        pool.append(e)
            for r in range(0, len(pool) + 1):
                for tail in combinations(pool, r):
                    if hang and not tail:
                        continue  # a linked block needs size >= 2
                    new = (m,) + tail
                    if not _family_ok(new, blocks):
                        continue
                    for e in new:
                        cover[e] += 1
                    extend(blocks + [new], cover, m)
                    for e in new:
                        cover[e] -= 1

    def _family_ok(new, blocks):
        new_set = set(new)
        for b in blocks:
            shared = new_set & set(b)
            if len(shared) > 1:
                return False
            if shared and (len(new) < 2 or len(b) < 2):
                return False
            if blocks_cross(new, b):
                return False
        return True

    extend([], {e: 0 for e in range(1, n + 1)}, 0)
    return out


# ---------------------------------------------------------------------------
# The lattice join, doubling, and the join fibers of NC_s
# ---------------------------------------------------------------------------

def nc_join(p, q):
    """Smallest non-crossing partition coarser than both arguments.

    The set-partition lattice join is taken first; crossing blocks are then
    merged to closure, which lands on the non-crossing join.
    """
    if p.n != q.n:
        raise ArgumentError("join needs a common ground set")
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for part in (p, q):
        for b in part.blocks:
            for e in b[1:]:
                union(b[0], e)
    while True:
        groups = {}
        for e in range(1, n + 1):
            groups.setdefault(find(e), []).append(e)
        blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
        merged = False
        for a, b in combinations(blocks, 2):
            if blocks_cross(a, b):
                union(a[0], b[0])
                merged = True
                break
        if not merged:
            return NCPartition._from_canonical(n, tuple(blocks))


def undouble(p):
    """Inverse of doubling, which sends each k to the pair 2k-1, 2k blockwise; raises if blocks do not pair up."""
    blocks = []
    for b in p.blocks:
        elems = set(b)
        halves = set()
        for e in b:
            k = (e + 1) // 2
            if not {2 * k - 1, 2 * k} <= elems:
                raise ArgumentError("partition is not a doubled partition")
            halves.add(k)
        blocks.append(tuple(sorted(halves)))
    return NCPartition(p.n // 2, tuple(blocks))


def pair_singletons_doubled(n):
    """The doubled all-singletons partition (1,2)(3,4)...(2n-1,2n)."""
    return NCPartition(2 * n, [(2 * k - 1, 2 * k) for k in range(1, n + 1)])


def group_nc_s_by_join(two_n):
    """Fiber the parity-constant partitions over their join with the doubled singletons.

    Returns a dict keyed by partitions p of {1..n}: the fiber of p holds the
    sigma whose join with (1,2)(3,4)... equals the doubling of p.
    """
    if two_n % 2 != 0 or not 2 <= two_n <= NC0_MAX:
        raise ResourceLimitError(
            f"group_nc_s_by_join needs an even ground set of size <= {NC0_MAX}"
        )
    n = two_n // 2
    zero_hat = pair_singletons_doubled(n)
    fibers = {}
    for sigma in enumerate_nc_s(two_n):
        joined = nc_join(sigma, zero_hat)
        fibers.setdefault(undouble(joined), []).append(sigma)
    return fibers


# ---------------------------------------------------------------------------
# Sums over block-size tables
# ---------------------------------------------------------------------------
#
# Every partition sum below adds, over a family of partitions, one product
# of coefficients read off the block sizes.  A table lists each distinct
# product once, as a sorted tuple of factors (slot, k) -- coefficient k of
# the series in family slot ``slot`` -- with the number of partitions that
# give it.  Tables hold no coefficients: they are built once per size by
# enumerating and classifying every partition, and then serve every input.


def _table(monomials):
    """Sorted (factors, count) rows from an iterable of factor lists."""
    return tuple(sorted(Counter(tuple(sorted(f)) for f in monomials).items()))


def _table_sum(table, families, mode):
    """The sum over rows of count times the product of the named coefficients.

    Neighbouring rows of a sorted table share a prefix of factors, so the
    partial products of the previous row are kept and only the rest of each
    row is multiplied out.  In exact mode the products are of Gaussian
    integers, the families' numerators over the lcm d of their denominators
    (:func:`_exact_table_sum`), and one scalar is built at the end; approx
    mode multiplies the complex coefficients row by row.
    """
    if mode == EXACT:
        numerators, d = _numerators(families)
        re, im, top = _exact_table_sum(table, numerators, d)
        return ComplexRational(Fraction(re, d**top), Fraction(im, d**top))
    acc = _zero(mode)
    previous = ()
    products = [_one(mode)]  # products[i]: the product of previous[:i]
    for factors, count in table:
        shared = _shared_prefix(previous, factors)
        del products[shared + 1:]
        for slot, k in factors[shared:]:
            products.append(products[-1] * families[slot].coefficient(k))
        acc = acc + count * products[-1]
        previous = factors
    return acc


def _shared_prefix(previous, factors):
    shared = 0
    for a, b in zip(previous, factors):
        if a != b:
            break
        shared += 1
    return shared


def _numerators(families):
    """The (re, im) numerator lists of exact series over d, the lcm of their denominators, and d."""
    if any(f.mode != EXACT for f in families):
        raise ArgumentError("mode mismatch")
    return _common_denominator(families)


def _exact_table_sum(table, numerators, d):
    """(re, im, J) with the table sum equal to (re + i im) / d^J.

    A row of j factors is a product of j Gaussian integers over d^j.  Rows
    are summed per length j, and the sums are joined over d^J, J the longest
    row, by Horner's rule in d.
    """
    top = max((len(factors) for factors, _ in table), default=0)
    res, ims = [0] * (top + 1), [0] * (top + 1)
    previous = ()
    products = [(1, 0)]  # products[i]: the product of previous[:i]
    for factors, count in table:
        shared = _shared_prefix(previous, factors)
        del products[shared + 1:]
        for slot, k in factors[shared:]:
            x, y = products[-1]
            u, v = numerators[slot][0][k], numerators[slot][1][k]
            products.append((x * u - y * v, x * v + y * u))
        x, y = products[-1]
        res[len(factors)] += count * x
        ims[len(factors)] += count * y
        previous = factors
    re = im = 0
    for x, y in zip(res, ims):
        re, im = re * d + x, im * d + y
    return re, im, top


def _table_series(tables, families, mode):
    """The series 0, sum(tables[0]), sum(tables[1]), ..."""
    if mode != EXACT:
        return TruncatedSeries([_zero(mode)] + [_table_sum(t, families, mode) for t in tables], mode)
    numerators, d = _numerators(families)
    sums = [_exact_table_sum(t, numerators, d) for t in tables]
    top = max((j for _, _, j in sums), default=0)
    return TruncatedSeries._from_ints(
        [0] + [re * d ** (top - j) for re, _, j in sums], [0] + [im * d ** (top - j) for _, im, j in sums], d**top
    )


# ---------------------------------------------------------------------------
# Partition-indexed coefficient products and boxed convolution
# ---------------------------------------------------------------------------

def cf_weight(p, f):
    """Product over the blocks of ``p`` of the coefficient at |block|.

    This reads one-indexed coefficient families (cumulant series with
    c_0 = 0).
    """
    blocks = getattr(p, "blocks", p)
    out = _one(f.mode)
    for b in blocks:
        out = out * f.coefficient(len(b))
    return out


@lru_cache(maxsize=None)
def _boxed_table(n, first_singleton):
    """Slot 0 reads the blocks of p in NC(n), slot 1 those of its complement."""
    return _table(
        [(0, len(b)) for b in p.blocks] + [(1, len(b)) for b in kreweras(p).blocks]
        for p in enumerate_nc(n)
        if not first_singleton or p.blocks[0] == (1,)
    )


def _boxed_sum(f, g, first_singleton):
    f._check_binary(g)
    if f._nonzero(0) or g._nonzero(0):
        raise DomainError("boxed convolution needs vanishing constant terms")
    return _table_series([_boxed_table(n, first_singleton) for n in range(1, f.order + 1)], (f, g), f.mode)


def boxed_convolution(f, g):
    """Blockwise product against complementary blocks, summed over NC(n).

    Coefficient n of the result adds, over every non-crossing partition of
    {1..n}, the block-coefficient product of ``f`` times the same product of
    ``g`` over the Kreweras complement.  The series z is the unit.
    """
    return _boxed_sum(f, g, first_singleton=False)


def boxed_convolution_checked(f, g):
    """Boxed convolution restricted to partitions where {1} is a singleton block."""
    return _boxed_sum(f, g, first_singleton=True)


# ---------------------------------------------------------------------------
# Moments as sums over non-crossing partitions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_table(n):
    """Slot 0 reads the exterior blocks of p in NC(n), slot 1 the interior ones."""
    return _table(
        [(0, len(p.blocks[i])) for i in p.ext_blocks] + [(1, len(p.blocks[i])) for i in p.int_blocks]
        for p in enumerate_nc(n)
    )


def phi_moments_nc_sum(cr, r):
    """Phi-moment n summed over NC(n): cr on exterior blocks, r on interior."""
    return _table_series([_nc_table(n) for n in range(1, r.order + 1)], (cr, r), r.mode)


def moments_from_free_cumulants_nc_sum(r):
    """Moment n as the sum over NC(n) of blockwise cumulant products."""
    return phi_moments_nc_sum(r, r)


# ---------------------------------------------------------------------------
# Moments as sums over linked non-crossing block families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _linked_table(n):
    """Slot 0 reads exterior linked blocks at |B|-1, slot 1 interior ones and t_0."""
    rows = []
    for g in enumerate_ncl(n):
        ext, intr, _, _ = ncl_classify(g)
        rows.append(
            [(0, len(b) - 1) for b in ext] + [(1, len(b) - 1) for b in intr] + [(1, 0)] * (n - len(g.blocks))
        )
    return _table(rows)


def phi_moments_via_linked_blocks(ct, t, n_max=None):
    """Phi-moment n over linked families: ct on exterior blocks, t inside.

    Each family gamma of {1..n} contributes t_0^(n - #blocks) times the
    product over blocks B of the coefficient at |B|-1; the prefactor stays
    in the psi family.  Independent of the closed form zc/(1-zc) in
    :func:`transforms.phi_moments_from_ct`, and much slower.
    """
    if ct.order != t.order or ct.mode != t.mode:
        raise ArgumentError("ct and t must share order and mode")
    if n_max is None:
        n_max = t.order + 1
    if n_max > t.order + 1:
        raise ArgumentError("n_max exceeds what the coefficients determine")
    return _table_series([_linked_table(n) for n in range(1, n_max + 1)], (ct, t), t.mode)


def psi_moments_via_linked_blocks(t, n_max=None):
    """Psi-moment n over linked families, every block read in t.

    The cross-check for :func:`transforms.moments_from_t`.
    """
    return phi_moments_via_linked_blocks(t, t, n_max)


# ---------------------------------------------------------------------------
# Partition-indexed cumulant products and cumulants of a product
# ---------------------------------------------------------------------------

def _kappa(p, letters, ext):
    """Blockwise cumulant product: ``cR`` on the blocks indexed in ``ext``, ``R`` on the rest."""
    if len(letters) != p.n:
        raise ArgumentError("need one letter per element")
    out = None
    for idx, b in enumerate(p.blocks):
        owner = letters[b[0] - 1]
        if any(letters[e - 1] is not owner for e in b):
            return _zero(owner.mode)
        w = (owner.cR if idx in ext else owner.R).coefficient(len(b))
        out = w if out is None else out * w
    return out


def kappa(p, letters):
    """Blockwise free-cumulant product; zero unless each block is one letter.

    ``letters`` assigns a law (a :class:`transforms.TransformBundle`) to each
    ground-set element; lookup is by object identity, so distinct objects are
    distinct letters even if their series coincide.
    """
    return _kappa(p, letters, ())


def Kappa(p, letters):
    """Like :func:`kappa` with phi-side cumulants on exterior blocks.

    Interior blocks read the psi cumulants ``R``, exterior ones ``cR``.
    """
    return _kappa(p, letters, p.ext_blocks)


@lru_cache(maxsize=None)
def _coupled_table(n):
    """Block B of sigma in NC_0(2n) reads slot 2*(min B mod 2) + (B exterior)."""
    return _table(
        [(2 * (b[0] % 2) + (i in sigma.ext_blocks), len(b)) for i, b in enumerate(sigma.blocks)]
        for sigma in enumerate_nc_0(2 * n)
    )


def _coupled_family_sum(odd_ext, odd_int, even_ext, even_int, n):
    """Blockwise products summed over the coupled family NC_0(2n).

    A block starting at an odd element reads the odd families, one starting
    at an even element the even ones; exterior blocks read ``*_ext`` and
    interior blocks ``*_int``.
    """
    if n < 1:
        raise ArgumentError(f"cumulants of a product need n >= 1, not n = {n}")
    return _table_sum(_coupled_table(n), (even_int, even_ext, odd_int, odd_ext), odd_ext.mode)


def product_psi_cumulants(r_x, r_y, n):
    """Cumulant n of a product of psi-free factors, via the coupled family.

    Sums blockwise cumulant products over the parity-constant partitions of
    {1..2n} whose even side complements the odd side; odd blocks read
    ``r_x``, even blocks ``r_y``.
    """
    return _coupled_family_sum(r_x, r_x, r_y, r_y, n)


def product_phi_cumulants(x, y, n):
    """Phi-side cumulant n of the product of two-state laws x and y.

    Same coupled-family sum as :func:`product_psi_cumulants`, with the two
    exterior blocks (containing 1 and 2n) read in the phi families.
    """
    return _coupled_family_sum(x.cR, x.R, y.cR, y.R, n)


def cfree_product_cumulant_series(x, y, order=None):
    """The shifted phi-cumulant series of a product, in closed form.

    Returns the series whose coefficient at z^{n-1} is the n-th phi-side
    cumulant of the product: writing A for the checked boxed convolution of
    the psi-cumulant series of x against y (scaled by the inverse first
    cumulant of x) and B for the mirror image, the result is

        [(cR_x / z) o A] * [(cR_y / z) o B].

    Needs both first psi-cumulants invertible.
    """
    r_x, r_y = x.R, y.R
    if not r_x._nonzero(1) or not r_y._nonzero(1):
        raise DomainError("product formula needs nonzero first psi-cumulants")
    if order is None:
        order = x.order - 1
    if order > x.order - 1:
        raise ArgumentError("order exceeds what the input data determines")
    inner_x = boxed_convolution_checked(r_x, r_y).scale(
        _one(x.mode) / r_x.coeffs[1]
    )
    inner_y = boxed_convolution_checked(r_y, r_x).scale(
        _one(x.mode) / r_y.coeffs[1]
    )
    lhs = x.cR.shift_down().compose(inner_x.truncate(x.order - 1))
    rhs = y.cR.shift_down().compose(inner_y.truncate(y.order - 1))
    return (lhs * rhs).truncate(order)


# ---------------------------------------------------------------------------
# Multi-letter cumulants via the splitting recurrence
# ---------------------------------------------------------------------------

def word_cumulant(moment_oracle, word, state="psi"):
    """Cumulant of a word of letters, from the defining splitting recurrence.

    ``moment_oracle(word, state)`` must return the moment of a word under
    the named state ("psi" or "phi") with the empty word mapping to 1.  The
    recurrence peels off the subsets of positions containing the first
    letter: the moment of a word is the sum, over position subsets
    1 = i_1 < ... < i_p, of the cumulant of the picked subword times the
    psi-moments of the gaps between picked positions times the moment of
    the tail after i_p under the computing state.  Solving for the full
    subset gives the cumulant.
    """
    if state not in ("psi", "phi"):
        raise ArgumentError("state must be 'psi' or 'phi'")
    word = tuple(word)
    if not word:
        raise ArgumentError("words must be nonempty")
    cache = {}

    def cum(w, st):
        key = (w, st)
        if key not in cache:
            total = moment_oracle(w, st)
            n = len(w)
            for picked in _proper_position_subsets(n):
                sub = tuple(w[i - 1] for i in picked)
                term = cum(sub, st)
                for a, b in zip(picked, picked[1:]):
                    gap = w[a : b - 1]
                    if gap:
                        term = term * moment_oracle(gap, "psi")
                tail = w[picked[-1] :]
                if tail:
                    term = term * moment_oracle(tail, st)
                total = total - term
            cache[key] = total
        return cache[key]

    return cum(word, state)


def _proper_position_subsets(n):
    """Nonempty proper subsets of 1..n containing 1, as ascending tuples."""
    for r in range(0, n - 1):
        for rest in combinations(range(2, n + 1), r):
            yield (1,) + rest
