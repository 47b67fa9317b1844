"""Set partitions, non-crossing partitions and non-crossing linked partitions.

Ground set is {1, ..., n}.  Partitions are stored canonically: each block is
an ascending tuple and blocks are ordered by their minima.  ``0_n`` denotes
the all-singletons partition, ``1_n`` the one-block partition.

Linked partitions relax disjointness: two blocks may share at most one
element, and a shared element must be the minimum of exactly one of the two
blocks (both of which then have at least two elements).  Ordinary
non-crossing partitions embed as the linked partitions with no shared
elements.

One recursion on the block containing 1 enumerates NC(n), its
parity-constant part NC_s(2n) and the linked partitions NCL(n).  Between
consecutive members of that block lie runs that are partitioned on their
own; for NCL the run [a_j, a_(j+1)) starting at a member a_j is a linked
partition whose first block, unless it is the singleton (a_j,), hangs off
a_j (see :func:`_iter_nc`).  NC(n) and NCL(n) come out in canonical order,
with no sort; NC_s keeps its generation order, which is not sorted.  The
coupled family NC_0(2n) is built from NC(n) instead: each p is placed on
the odd points and its Kreweras complement on the even points, and the
list is sorted once into NC_s's order.  The lattice join and the doubling
that re-derive NC_0 a second way live in :mod:`oracles`.

The layer keeps one copy of each block and of each shared partition.
Every block of an enumerated partition or of a built complement is interned:
one tuple per value.  Runs of up to ``_CACHE_MAX`` elements are shifted once
and shared between enumerations.  Once NC(n) is built, the Kreweras
complement of any non-crossing partition of {1..n} is that enumeration's own
partition, since the complement is a bijection of NC(n).
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb

from .errors import ArgumentError, ResourceLimitError

# Enumeration guards.  Exhaustive suites are expected to run in seconds at
# sizes well below these; the guards only keep runaway requests bounded.
NC_MAX = 14
NCS_MAX = 14
NC0_MAX = 12
NCL_MAX = 10

_CACHE_MAX = 10  # enumerations up to this ground-set size are memoized

# One tuple per block value: every block of an enumerated partition or of a
# built complement goes through this table, which holds at most the 2^14 - 1
# nonempty subsets of {1..NC_MAX}.
_BLOCKS = {}

_NC = {}  # (n, step) -> the partitions of _iter_nc, for n <= _CACHE_MAX
_NC_INDEX = {}  # n -> {blocks: partition} over _NC[n, 1], made on the first complement asked for


def blocks_cross(a, b):
    """True if two blocks cross: i < k < p < q with i, p in one and k, q in the other.

    The quadruple is strict, so blocks sharing an element (as linked blocks
    may) are compared on their remaining elements as well as the shared one.
    """
    for first, second in ((a, b), (b, a)):
        for i, p in combinations(first, 2):
            if any(i < k < p for k in second) and any(q > p for q in second):
                return True
    return False


class _Blocks:
    """Blocks over {1..n}, each an ascending tuple, ordered by their minima."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        if n < 1:
            raise ArgumentError("ground-set size must be at least 1")
        canon = []
        for b in blocks:
            bb = tuple(sorted(b))
            if not bb or len(set(bb)) != len(bb):
                raise ArgumentError("blocks must be nonempty with distinct elements")
            canon.append(bb)
        canon.sort()
        self.n = n
        self.blocks = tuple(canon)

    @classmethod
    def _from_canonical(cls, n, blocks):
        # Fast path for enumeration output: blocks already canonical and valid.
        self = object.__new__(cls)
        self.n = n
        self.blocks = blocks
        return self

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, _Blocks)
            and self._family == other._family
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        body = "".join(repr(list(b)) for b in self.blocks)
        return f"{type(self).__name__}({self.n}, {body})"

    def to_json(self):
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}


class SetPartition(_Blocks):
    """A partition of {1..n} into disjoint nonempty blocks."""

    __slots__ = ()
    _family = "set"

    def __init__(self, n, blocks):
        super().__init__(n, blocks)
        covered = sorted(e for b in self.blocks for e in b)
        if len(covered) != n or covered != list(range(1, n + 1)):
            raise ArgumentError(f"blocks must partition 1..{n} into disjoint sets")


def is_noncrossing(p):
    """Whether a SetPartition (or raw block list) has no crossing pair of blocks."""
    blocks = p.blocks if isinstance(p, SetPartition) else [tuple(sorted(b)) for b in p]
    return not any(
        blocks_cross(a, b) for a, b in combinations(blocks, 2)
    )


class NCPartition(SetPartition):
    """Non-crossing partition, with its exterior/interior block split.

    A block is interior when some other block has elements on both sides of
    it (strictly below its minimum and strictly above its maximum); the rest
    are exterior.  ``ext_blocks`` and ``int_blocks`` hold block indices and
    are computed on first read: most partitions built in bulk, such as
    complements, are never asked.  The Kreweras complement is kept the same
    way: :func:`kreweras` computes it on the first call and stores it here.
    """

    __slots__ = ("_split", "_complement")

    def __init__(self, n, blocks):
        super().__init__(n, blocks)
        if not is_noncrossing(self):
            raise ArgumentError("blocks cross")

    def _classified(self):
        try:
            return self._split
        except AttributeError:
            pass
        ext, intr = [], []
        for idx, b in enumerate(self.blocks):
            lo, hi = b[0], b[-1]
            if any(d[0] < lo and hi < d[-1] for d in self.blocks if d is not b):
                intr.append(idx)
            else:
                ext.append(idx)
        self._split = (tuple(ext), tuple(intr))
        return self._split

    @property
    def ext_blocks(self):
        return self._classified()[0]

    @property
    def int_blocks(self):
        return self._classified()[1]


def singletons(n):
    """The all-singletons partition 0_n."""
    return NCPartition(n, [(k,) for k in range(1, n + 1)])


def one_block(n):
    """The one-block partition 1_n."""
    return NCPartition(n, [tuple(range(1, n + 1))])


# ---------------------------------------------------------------------------
# Enumeration of NC(n)
# ---------------------------------------------------------------------------

def _iter_nc(n, step, linked=False, memo=None):
    """Yield the blocks of the non-crossing partitions of {1..n} made by ``step``, or of the linked ones.

    Recursive on the block containing 1.  It takes 1 and any of 1 + step,
    1 + 2*step, ... up to n, and the runs of elements between its
    consecutive members (and after its maximum) are then partitioned
    independently, each without crossings.  Step 1 gives all of NC(n), and
    takes the rest of the first block in lexicographic order.  Step 2 gives
    the parity-constant ones: the first block keeps one parity, and
    parity-constancy survives the shift of a run, so the runs recurse with
    the same step.  It takes the rest by size, the order NC_s keeps.

    ``linked`` gives NCL(n) on the same recursion (step 1).  Let the block
    containing 1 be {1 < a_1 < ... < a_k}.  No other block holds 1, and none
    holds some a_j as a non-minimum, since a shared element is the minimum
    of exactly one of its two blocks.  So every other block lies in the gap
    2..a_1 - 1, which holds any linked partition, or in one segment
    [a_j, a_(j+1)) (the last ends at n), which holds a linked partition of
    its own; there a_j lies in the segment's first block, which is dropped
    when it is the singleton (a_j,) and otherwise hangs off a_j.  This is a
    bijection, so the counts are the large Schroeder numbers.

    The first block followed by the runs' blocks in turn is ordered by
    minima.  Two partitions of one run cover the same elements, so neither
    block list is a prefix of the other: runs in canonical order make step 1
    and ``linked`` yield canonical order.  Every block is interned.  ``memo``
    holds the runs longer than ``_CACHE_MAX``, built once per enumeration.
    """
    if memo is None:
        memo = {}
    pool = range(1 + step, n + 1, step)
    by_size = chain.from_iterable(combinations(pool, r) for r in range(len(pool) + 1))
    for rest in _subsets(pool) if step == 1 else by_size:
        first = (1,) + rest
        first = _BLOCKS.setdefault(first, first)
        if linked:
            ends = rest + (n + 1,)
            runs = [(1, ends[0] - 2, False)] + [(lo - 1, hi - lo, True) for lo, hi in zip(rest, ends[1:])]
        else:
            runs = [(lo, hi - lo - 1, False) for lo, hi in zip(first, first[1:] + (n + 1,))]
        choices = [_run_choices(off, size, headed, step, linked, memo) for off, size, headed in runs if size]
        for tail in product(*choices):
            yield (first, *chain.from_iterable(tail))


def _subsets(pool):
    """The subsets of the ascending ``pool`` in lexicographic order: each before its extensions."""
    yield ()
    for i, e in enumerate(pool):
        for rest in _subsets(pool[i + 1:]):
            yield (e, *rest)


def _run_choices(off, size, headed, step, linked, memo):
    """The blocks of each partition of a run of ``size`` elements, shifted by ``off``.

    Runs of up to ``_CACHE_MAX`` elements are shifted once and shared, from
    the shared enumerations; longer ones are shifted per call, from the
    enumeration kept in ``memo``.
    """
    if size <= _CACHE_MAX:
        return _shared_run_choices(off, size, headed, step, linked)
    key = (size, step, linked)
    if key not in memo:
        memo[key] = list(_iter_nc(size, step, linked, memo))
    return _shifted(off, headed, memo[key])


@lru_cache(maxsize=None)
def _shared_run_choices(off, size, headed, step, linked):
    return _shifted(off, headed, [p.blocks for p in (_ncl_cached(size) if linked else _nc(size, step))])


def _shifted(off, headed, runs):
    """Each block list of ``runs`` shifted by ``off``, its blocks interned.

    A headed run starts at a member of the block containing 1, so its
    leading singleton is dropped, and its lists are sorted again: in NCL(3),
    ((1, 2), (2, 3)) precedes ((1, 2), (3,)).
    """
    intern = _BLOCKS.setdefault
    out = []
    for blocks in runs:
        if headed and blocks[0] == (1,):
            blocks = blocks[1:]
        out.append(tuple(intern(b, b) for b in (tuple(e + off for e in b) for b in blocks)))
    return sorted(out) if headed else out


def _nc(n, step):
    """The partitions of :func:`_iter_nc`: built once and shared up to ``_CACHE_MAX``, generated one by one above."""
    if n <= _CACHE_MAX:
        return _shared_nc(n, step)
    return (NCPartition._from_canonical(n, blocks) for blocks in _iter_nc(n, step))


@lru_cache(maxsize=None)
def _shared_nc(n, step):
    # Kept in _NC too, where kreweras looks for NC(n) without building it.
    return _NC.setdefault((n, step), tuple(NCPartition._from_canonical(n, blocks) for blocks in _iter_nc(n, step)))


def _nc_guard(n):
    if not 1 <= n <= NC_MAX:
        raise ResourceLimitError(f"enumerate_nc supports 1 <= n <= {NC_MAX}")


def count_nc(n):
    """|NC(n)|, the Catalan number C(2n, n)/(n + 1), without enumerating; n is guarded as in :func:`enumerate_nc`."""
    _nc_guard(n)
    return comb(2 * n, n) // (n + 1)


def enumerate_nc(n):
    """All non-crossing partitions of {1..n}, in canonical order, the order the recursion yields.

    Up to ``_CACHE_MAX`` each call returns a fresh list of the same shared
    objects, which :func:`kreweras` maps to each other.  Their blocks are
    interned, one tuple per value, at every size.
    """
    return list(iter_nc(n))


def iter_nc(n):
    """The partitions of :func:`enumerate_nc` one by one; above ``_CACHE_MAX``, as the recursion yields them."""
    _nc_guard(n)
    return iter(_nc(n, 1))


# ---------------------------------------------------------------------------
# Kreweras complement
# ---------------------------------------------------------------------------

def kreweras(p):
    """Kreweras complement, as the permutation product p^-1 gamma.

    Read each block as a cycle in ascending order and let gamma be the
    cycle (1 2 ... n); the complement's blocks are the cycles of p^-1 gamma
    (Nica and Speicher, *Lectures on the Combinatorics of Free Probability*,
    Lecture 18), found in one O(n) walk.  Element k stands for the gap
    between k and k+1.  For non-crossing p each cycle, walked from its least
    element, comes out ascending, and the walks start in increasing order,
    so the blocks come out canonical.  Every p has #p + #(p^-1 gamma) <=
    n + 1, with equality exactly when p is non-crossing (Biane), so a
    crossing partition is refused by counting.  Validated in the tests
    against the defining maximality property and the planar-face walk.

    The complement of an :class:`NCPartition` is kept on it, so every later
    call on the same object returns the same object; :func:`enumerate_nc`
    shares its partitions up to ``_CACHE_MAX``, so repeated sums over NC(n)
    walk each one once.  When NC(n) is already built, the complement is its
    partition with the walked blocks, found through an index from blocks
    made once per n; this holds for a partition built by hand too, and the
    lookup never starts an enumeration.  Otherwise the complement is built
    from interned blocks.  A crossing :class:`SetPartition` is refused on
    every call, and anything else, a linked partition included, is refused
    before the walk.
    """
    complement = getattr(p, "_complement", None)
    if complement is not None:
        return complement
    if not isinstance(p, SetPartition):
        raise ArgumentError(f"the Kreweras complement needs a set partition, not {p!r}")
    n = p.n
    before = [0] * (n + 1)  # before[e] = p^-1(e)
    for b in p.blocks:
        last = b[-1]
        for e in b:
            before[e] = last
            last = e
    after = before[2:] + before[1:2]  # after[k - 1] = p^-1(gamma(k))
    seen = [False] * (n + 1)
    blocks = []
    for k in range(1, n + 1):
        if seen[k]:
            continue
        cycle = []
        j = k
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = after[j - 1]
        blocks.append(tuple(cycle))
    if len(p.blocks) + len(blocks) != n + 1:
        raise ArgumentError(f"{p!r} is crossing; the Kreweras complement needs a non-crossing partition")
    blocks = tuple(blocks)
    complement = _enumerated_nc(n, blocks)
    if complement is None:
        if n <= NC_MAX:
            blocks = tuple(_BLOCKS.setdefault(b, b) for b in blocks)
        complement = NCPartition._from_canonical(n, blocks)
    if isinstance(p, NCPartition):
        p._complement = complement
    return complement


def _enumerated_nc(n, blocks):
    """The partition of NC(n) with these blocks, if NC(n) is built; else None.

    The index from blocks to partitions is made once per n, and only for
    an enumeration that already exists.
    """
    index = _NC_INDEX.get(n)
    if index is None:
        parts = _NC.get((n, 1))
        if parts is None:
            return None
        index = _NC_INDEX[n] = {p.blocks: p for p in parts}
    return index[blocks]


# ---------------------------------------------------------------------------
# Parity-constant partitions, and the coupled subfamily
# ---------------------------------------------------------------------------

def _nc_s_guard(two_n):
    if two_n % 2 != 0 or not 2 <= two_n <= NCS_MAX:
        raise ResourceLimitError(
            f"enumerate_nc_s needs an even ground set of size <= {NCS_MAX}"
        )


def count_nc_s(two_n):
    """|NC_s(2k)| = C(3k, k)/(2k + 1), without enumerating; 2k is guarded as in :func:`enumerate_nc_s`."""
    _nc_s_guard(two_n)
    k = two_n // 2
    return comb(3 * k, k) // (2 * k + 1)


def enumerate_nc_s(two_n):
    """Non-crossing partitions of {1..2n} whose blocks have constant parity."""
    _nc_s_guard(two_n)
    return list(_nc(two_n, 2))


@lru_cache(maxsize=None)
def _nc_0_cached(two_n):
    intern = _BLOCKS.setdefault
    out = []
    for p in enumerate_nc(two_n // 2):
        odd = (tuple(2 * e - 1 for e in b) for b in p.blocks)
        even = (tuple(2 * e for e in b) for b in kreweras(p).blocks)
        out.append(NCPartition._from_canonical(two_n, tuple(intern(b, b) for b in sorted(chain(odd, even)))))
    out.sort(key=lambda sigma: [(len(b), b) for b in sigma.blocks])
    return tuple(out)


def enumerate_nc_0(two_n):
    """Parity-constant partitions whose even side complements the odd side.

    NC_0(2n) is the image of NC(n) under p -> p on the odd points and its
    Kreweras complement on the even points, the family of Nica and
    Speicher's formula for the cumulants of a product of free variables, so
    each sigma is built from one p of :func:`enumerate_nc` and its kept
    complement, with no search over NC_s(2n).  The list is sorted by the
    sizes and elements of the blocks in turn, the order in which
    :func:`enumerate_nc_s` generates, so it is NC_s(2n) in its own order
    restricted to NC_0.  ``cfreeconv verify`` checks it against the lattice
    criterion, that sigma joined with the doubled singletons is the
    one-block partition (:func:`oracles.group_nc_s_by_join`).
    """
    if two_n % 2 != 0 or not 2 <= two_n <= NC0_MAX:
        raise ResourceLimitError(
            f"enumerate_nc_0 needs an even ground set of size <= {NC0_MAX}"
        )
    return list(_nc_0_cached(two_n))

# ---------------------------------------------------------------------------
# Non-crossing linked partitions
# ---------------------------------------------------------------------------

class NCLinkedPartition(_Blocks):
    """Blocks covering {1..n}, non-crossing, pairwise sharing at most one element.

    A shared element must be the minimum of exactly one of the two blocks
    sharing it, and both of those blocks must have at least two elements.
    Every element is therefore covered once or twice, and block minima are
    pairwise distinct.  ``cover_count`` maps each element to the number of
    blocks covering it; it is counted from the blocks on every read, so the
    enumerated partitions store nothing beside their blocks.
    """

    __slots__ = ()
    _family = "ncl"

    def __init__(self, n, blocks):
        super().__init__(n, blocks)
        count = self.cover_count
        if len(count) != n or sorted(count) != list(range(1, n + 1)):
            raise ArgumentError(f"blocks must cover 1..{n}")
        for a, b in combinations(self.blocks, 2):
            shared = set(a) & set(b)
            if len(shared) > 1:
                raise ArgumentError("two blocks share more than one element")
            if len(shared) == 1:
                (j,) = shared
                if len(a) < 2 or len(b) < 2:
                    raise ArgumentError("blocks sharing an element must have size >= 2")
                if (j == a[0]) == (j == b[0]):
                    raise ArgumentError(
                        "a shared element must be the minimum of exactly one block"
                    )
            if blocks_cross(a, b):
                raise ArgumentError("blocks cross")
        if any(c > 2 for c in count.values()):
            raise ArgumentError("an element may lie in at most two blocks")

    @property
    def cover_count(self):
        return Counter(e for b in self.blocks for e in b)


@lru_cache(maxsize=None)
def _ncl_cached(n):
    return tuple(NCLinkedPartition._from_canonical(n, blocks) for blocks in _iter_nc(n, 1, linked=True))


def enumerate_ncl(n):
    """All non-crossing linked partitions of {1..n}, in canonical order."""
    if not 1 <= n <= NCL_MAX:
        raise ResourceLimitError(f"enumerate_ncl supports 1 <= n <= {NCL_MAX}")
    return list(_ncl_cached(n))


def ncl_classify(g):
    """Split a linked partition into exterior/interior blocks and cover classes.

    Returns ``(exterior, interior, singly, doubly)``.  A block is interior
    when its minimum is doubly covered (it hangs off a host block) or when
    some other block has elements weakly left of its minimum and strictly
    right of its maximum; exterior blocks are the rest.  ``singly`` and
    ``doubly`` are the sets of elements covered once resp. twice.  A
    non-crossing partition is classified as the linked partition with the
    same blocks, which shares no element; anything else is refused.
    """
    if isinstance(g, NCPartition):
        g = NCLinkedPartition._from_canonical(g.n, g.blocks)
    elif not isinstance(g, NCLinkedPartition):
        raise ArgumentError(f"ncl_classify needs a linked or non-crossing partition, not {g!r}")
    count = g.cover_count
    ext, intr = [], []
    for b in g.blocks:
        lo, hi = b[0], b[-1]
        # b hangs off a host when its minimum is shared; the host covers the
        # minimum as a non-minimal element, so b sits inside the host's arc.
        hangs = count[lo] == 2
        spanned = any(d is not b and d[0] < lo and hi < d[-1] for d in g.blocks)
        if hangs or spanned:
            intr.append(b)
        else:
            ext.append(b)
    singly = frozenset(e for e, c in count.items() if c == 1)
    doubly = frozenset(e for e, c in count.items() if c == 2)
    return tuple(ext), tuple(intr), singly, doubly


def partition_from_json(data, kind="nc"):
    """Rebuild a partition from its JSON form; ``kind`` is nc|ncl|set.

    The form is an object with an integer ``n`` and ``blocks``, a list of
    integer lists (tuples pass too); anything else raises
    :class:`ArgumentError`.
    """
    if not isinstance(data, dict) or not {"n", "blocks"} <= data.keys():
        raise ArgumentError("a partition in JSON is an object with the keys n and blocks")
    n, blocks = data["n"], data["blocks"]
    if type(n) is not int or not isinstance(blocks, (list, tuple)) or not all(
        isinstance(b, (list, tuple)) and all(type(e) is int for e in b) for b in blocks
    ):
        raise ArgumentError("a partition in JSON needs an integer n and blocks as a list of integer lists")
    if kind == "ncl":
        return NCLinkedPartition(n, blocks)
    if kind == "nc":
        return NCPartition(n, blocks)
    if kind == "set":
        return SetPartition(n, blocks)
    raise ArgumentError(f"unknown partition kind {kind!r}")
