"""Partition machinery against brute-force oracles and frozen small cases."""
import hashlib
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import chain, combinations, product

import pytest

from cfreeconv import oracles, partitions, verify
from cfreeconv.errors import ArgumentError, ResourceLimitError
from cfreeconv.oracles import group_nc_s_by_join, nc_join, pair_singletons_doubled, undouble
from cfreeconv.partitions import (
    NCLinkedPartition,
    NCPartition,
    SetPartition,
    enumerate_nc,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    is_noncrossing,
    kreweras,
    ncl_classify,
    one_block,
    partition_from_json,
    singletons,
)


def test_setpartition_canonical_and_validation():
    p = SetPartition(4, [[3, 2], [4], [1]])
    assert p.blocks == ((1,), (2, 3), (4,))
    with pytest.raises(ArgumentError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ArgumentError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ArgumentError):
        SetPartition(2, [[1, 1], [2]])


def test_is_noncrossing_matches_quadruple_oracle():
    for n in range(1, 7):
        for blocks in oracles.iter_set_partitions(n):
            assert is_noncrossing(blocks) == (not oracles.has_crossing_quadruple(blocks))


def test_noncrossing_examples():
    assert is_noncrossing(SetPartition(4, [[1, 4], [2, 3]]))
    assert not is_noncrossing(SetPartition(4, [[1, 3], [2, 4]]))
    with pytest.raises(ArgumentError):
        NCPartition(4, [[1, 3], [2, 4]])


def test_enumerate_nc_matches_filter_oracle():
    for n in range(1, 8):
        ours = {p.blocks for p in enumerate_nc(n)}
        brute = set(oracles.nc_by_filtering(n))
        assert ours == brute


def test_enumerate_nc_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_nc(15)
    with pytest.raises(ResourceLimitError):
        enumerate_nc(0)


def test_exterior_interior_split():
    p = NCPartition(5, [[1, 5], [2, 4], [3]])
    assert [p.blocks[i] for i in p.ext_blocks] == [(1, 5)]
    assert [p.blocks[i] for i in p.int_blocks] == [(2, 4), (3,)]
    q = NCPartition(4, [[1, 2], [3, 4]])
    assert [q.blocks[i] for i in q.int_blocks] == []
    assert len(p.ext_blocks) == 1
    assert len(q.ext_blocks) == 2


def test_kreweras_small_cases():
    assert kreweras(NCPartition(3, [[1, 3], [2]])).blocks == ((1, 2), (3,))
    assert kreweras(one_block(4)).blocks == ((1,), (2,), (3,), (4,))
    assert kreweras(singletons(4)).blocks == ((1, 2, 3, 4),)


def kreweras_by_faces(p):
    """Reference complement by the planar-face construction.

    Gap k sits between elements k and k+1 (gap n after n).  Draw each block
    as a comb joining its elements; the combs cut the upper half-plane into
    faces.  Two gaps belong to the same complement block exactly when they
    lie in the same face: same innermost enclosing block and same cell
    between consecutive elements of it, with all gaps outside every comb
    sharing the outer face.
    """
    n = p.n
    where = {}
    for b in p.blocks:
        for e in b:
            where[e] = b
    stack = []
    face_of = {}
    for k in range(1, n + 1):
        b = where[k]
        if len(b) > 1 and b[0] == k:
            stack.append(b)
        if stack and stack[-1][-1] == k:
            stack.pop()
        if stack:
            top = stack[-1]
            cell = sum(1 for e in top if e <= k)
            face_of[k] = (top, cell)
        else:
            face_of[k] = None
    groups = {}
    for k in range(1, n + 1):
        groups.setdefault(face_of[k], []).append(k)
    return tuple(tuple(g) for g in groups.values())


def rotated_down(p):
    """The blocks of p relabeled by e -> e - 1, with 1 -> n, in canonical order."""
    return tuple(sorted(tuple(sorted((e - 2) % p.n + 1 for e in b)) for b in p.blocks))


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_on_all_of_nc(n):
    parts = enumerate_nc(n)
    complements = [kreweras(p) for p in parts]
    assert len(set(complements)) == len(parts)  # a bijection of NC(n)
    for p, k in zip(parts, complements):
        assert k.blocks == kreweras_by_faces(p)
        assert len(p) + len(k) == n + 1
        assert kreweras(k).blocks == rotated_down(p)


def test_kreweras_refuses_a_crossing_partition():
    with pytest.raises(ArgumentError, match="crossing"):
        kreweras(SetPartition(4, [(1, 3), (2, 4)]))
    for n in range(1, 7):
        for blocks in oracles.iter_set_partitions(n):
            p = SetPartition(n, blocks)
            if oracles.has_crossing_quadruple(blocks):
                with pytest.raises(ArgumentError):
                    kreweras(p)
            else:
                assert kreweras(p) == kreweras(NCPartition(n, blocks))


def test_kreweras_keeps_the_complement_on_the_partition(monkeypatch):
    parts = [p for n in range(1, 11) for p in enumerate_nc(n)]
    complements = [kreweras(p) for p in parts]
    real = NCPartition._from_canonical
    built = []

    def spy(cls, n, blocks):
        built.append(blocks)
        return real(n, blocks)

    monkeypatch.setattr(NCPartition, "_from_canonical", classmethod(spy))
    assert all(kreweras(p) is k for p, k in zip(parts, complements))
    assert built == []
    # A partition built by hand is another object, but once NC(7) is built
    # its complement is the shared one, and nothing is built for it.
    p = enumerate_nc(7)[100]
    mine = NCPartition(7, p.blocks)
    assert mine is not p and kreweras(mine) is kreweras(p)
    assert built == []
    crossing = SetPartition(4, [(1, 3), (2, 4)])
    for _ in range(2):
        with pytest.raises(ArgumentError, match="crossing"):
            kreweras(crossing)


@pytest.fixture
def iter_nc_calls(monkeypatch):
    """The (n, step) of every call of the enumeration recursion, in order."""
    real = partitions._iter_nc
    calls = []

    def spy(n, step=1, *rest, **options):
        calls.append((n, step))
        return real(n, step, *rest, **options)

    monkeypatch.setattr(partitions, "_iter_nc", spy)
    return calls


def test_kreweras_on_an_unbuilt_nc_enumerates_nothing(monkeypatch, iter_nc_calls):
    monkeypatch.setattr(partitions, "_NC", {})
    monkeypatch.setattr(partitions, "_NC_INDEX", {})
    for p in (NCPartition(7, [(1, 4), (2, 3), (5, 6, 7)]), NCPartition(12, [(1, 12), (2, 5), (6, 11)] + [(k,) for k in (3, 4, 7, 8, 9, 10)])):
        assert kreweras(p).blocks == kreweras_by_faces(p)
    assert iter_nc_calls == [] and partitions._NC == {} and partitions._NC_INDEX == {}


def test_blocks_are_interned():
    # One tuple per block value across NC(1..10), their complements, NCL(1..8),
    # NC_s(2..12) and NC_0(2..12); the first three hold every nonempty subset
    # of {1..10}.
    nc = [p for n in range(1, 11) for p in enumerate_nc(n)]
    families = nc + [kreweras(p) for p in nc] + [g for n in range(1, 9) for g in enumerate_ncl(n)]
    blocks = [b for p in families for b in p.blocks]
    assert len({id(b) for b in blocks}) == len(set(blocks)) == 1023
    blocks += [b for k in range(2, 13, 2) for p in enumerate_nc_s(k) + enumerate_nc_0(k) for b in p.blocks]
    assert len({id(b) for b in blocks}) == len(set(blocks))


def test_partition_tables_stay_small():
    # NC(1..10), their complements and NCL(1..8) held 21.4 MiB when each
    # block and each complement was its own object.
    script = (
        "import tracemalloc\n"
        "from cfreeconv.partitions import enumerate_nc, enumerate_ncl, kreweras\n"
        "tracemalloc.start()\n"
        "nc = [enumerate_nc(n) for n in range(1, 11)]\n"
        "held = nc, [[kreweras(p) for p in ps] for ps in nc], [enumerate_ncl(n) for n in range(1, 9)]\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert int(out.stdout) < 10 * 2**20


def test_kreweras_refuses_a_linked_partition():
    linked = [g for n in range(1, 7) for g in enumerate_ncl(n) if 2 in g.cover_count.values()]
    assert len(linked) == 319
    for g in linked:
        with pytest.raises(ArgumentError, match="set partition"):
            kreweras(g)


def test_enumerate_nc_returns_a_fresh_list_of_shared_partitions():
    first, second = enumerate_nc(6), enumerate_nc(6)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(enumerate_nc(6)) == 132


def test_nc_join_against_search():
    rng = random.Random(11)
    for n in range(2, 7):
        pool = enumerate_nc(n)
        for _ in range(40):
            p, q = rng.choice(pool), rng.choice(pool)
            assert nc_join(p, q) == oracles.join_by_search(p, q)


def double(p):
    """Send each element k to the pair 2k-1, 2k, blockwise."""
    blocks = tuple(
        tuple(sorted(x for e in b for x in (2 * e - 1, 2 * e))) for b in p.blocks
    )
    return NCPartition(2 * p.n, blocks)


def test_double_and_undouble():
    p = NCPartition(3, [[1, 3], [2]])
    d = double(p)
    assert d.blocks == ((1, 2, 5, 6), (3, 4))
    assert undouble(d) == p
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert undouble(double(p)) == p  # doubling keeps non-crossing


def parity_constant(blocks):
    return all(len({e % 2 for e in b}) == 1 for b in blocks)


def test_nc_s_counts_and_membership():
    assert len(enumerate_nc_s(4)) == 3
    for two_n in (2, 4, 6, 8):
        ours = {p.blocks for p in enumerate_nc_s(two_n)}
        assert ours == {p.blocks for p in enumerate_nc(two_n) if parity_constant(p.blocks)}
        assert ours == {blocks for blocks in oracles.nc_by_filtering(two_n) if parity_constant(blocks)}


@lru_cache(maxsize=None)
def nc_by_size(n):
    """NC(n) by the recursion on the block containing 1, the rest of that block taken by size."""
    if n == 0:
        return ((),)
    out = []
    for rest in chain.from_iterable(combinations(range(2, n + 1), r) for r in range(n)):
        first = (1,) + rest
        runs = [[tuple(tuple(e + lo for e in b) for b in p) for p in nc_by_size(hi - lo - 1)] for lo, hi in zip(first, first[1:] + (n + 1,))]
        out += [(first, *chain.from_iterable(tail)) for tail in product(*runs)]
    return tuple(out)


@pytest.mark.parametrize("two_n", range(2, 13, 2))
def test_nc_s_is_the_parity_filter_of_nc_in_generation_order(two_n):
    # NC_s takes the first block's rest by size, so it is the parity filter
    # of NC(2n) generated that way, which the reference above does; NC
    # itself comes out in canonical order.
    filtered = [blocks for blocks in nc_by_size(two_n) if parity_constant(blocks)]
    assert sorted(filtered) == [p.blocks for p in enumerate_nc(two_n) if parity_constant(p.blocks)]
    assert [p.blocks for p in enumerate_nc_s(two_n)] == filtered


def digest(lists):
    h = hashlib.sha256()
    for parts in lists:
        h.update(repr([p.blocks for p in parts]).encode())
    return h.hexdigest()


def test_parity_classes_keep_their_frozen_order():
    # sha256 of the block lists for 2n = 2, 4, ..., 12, as the earlier
    # filter over all of NC(2n) produced them, of NCL(1..9) as the earlier
    # left-to-right stack walk produced it, of NC(1..10) as it was before
    # blocks were interned, and of NC(11) as it was sorted after the
    # recursion.
    sizes = range(2, 13, 2)
    assert digest(enumerate_nc(n) for n in range(1, 11)) == "087614712cd85422a32a9ee1596a01bea2c7221bdddb29387d6cef058a0620ae"
    assert digest([enumerate_nc(11)]) == "d5052fdf70eac63f8b9aa529d9ea873b22cec05c4968e7d6420b5d2f61889d94"
    assert digest(enumerate_nc_s(k) for k in sizes) == "1fd4cda468a53e536c2e3c7f7acc85d41159d4811bce3541e8f1ff652a325ac7"
    assert digest(enumerate_nc_0(k) for k in sizes) == "5abd3d542f07e6fc7a526a595e63909c0e35bd5e417dfee2743400851f112b3a"
    assert digest(enumerate_ncl(n) for n in range(1, 10)) == "a5f838ef8d46c3b2e05b063cd160b0c818937c335270bdfbe43e5b6166a29cc2"


def test_nc_s_does_not_enumerate_all_of_nc(iter_nc_calls):
    assert len(enumerate_nc_s(12)) == 1428
    assert (12, 1) not in iter_nc_calls


def test_an_enumeration_builds_each_long_run_once(iter_nc_calls):
    # Runs longer than _CACHE_MAX are not shared between calls, but one
    # enumeration builds each of their sizes once.
    assert len(enumerate_nc_s(14)) == 7752
    assert sorted(n for n, _ in iter_nc_calls if n > partitions._CACHE_MAX) == [11, 12, 13, 14]


def test_nc_0_builds_no_parity_constant_enumeration(iter_nc_calls):
    # NC_0(12) comes from NC(6) and its complements, not from a search of
    # the 1,428 members of NC_s(12).
    partitions._nc_0_cached.cache_clear()
    assert len(enumerate_nc_0(12)) == 132
    assert [call for call in iter_nc_calls if call[1] == 2] == []


def test_nc_0_cross_check_catches_a_wrong_complement(monkeypatch):
    # The registry compares NC_0 with the join criterion's family.
    monkeypatch.setattr(partitions, "kreweras", lambda p: p)
    partitions._nc_0_cached.cache_clear()
    try:
        rows = verify.run("partitions")
    finally:
        partitions._nc_0_cached.cache_clear()
    assert [(name, detail) for name, ok, detail in rows if not ok] == [
        ("partitions: parity class counts", "AssertionError: nc_0(4) differs from the join fiber of 1_2")
    ]


def test_nc_0_counts_and_exterior_structure():
    assert len(enumerate_nc_0(4)) == 2
    got4 = {p.blocks for p in enumerate_nc_0(4)}
    assert got4 == {((1, 3), (2,), (4,)), ((1,), (2, 4), (3,))}
    for two_n in (2, 4, 6, 8, 10):
        for sigma in enumerate_nc_0(two_n):
            ext = [sigma.blocks[i] for i in sigma.ext_blocks]
            assert len(ext) == 2
            assert 1 in ext[0] and two_n in ext[-1]
        # one coupled partner per non-crossing partition of the half set
        assert len(enumerate_nc_0(two_n)) == len(enumerate_nc(two_n // 2))


def test_group_nc_s_by_join_partitions_the_family():
    for two_n in (2, 4, 6, 8):
        n = two_n // 2
        fibers = group_nc_s_by_join(two_n)
        total = sum(len(v) for v in fibers.values())
        assert total == len(enumerate_nc_s(two_n))
        top_fiber = fibers[one_block(n)]
        assert {s.blocks for s in top_fiber} == {
            s.blocks for s in enumerate_nc_0(two_n)
        }
        for base, sigmas in fibers.items():
            hat = double(base)
            for s in sigmas:
                assert nc_join(s, pair_singletons_doubled(n)) == hat


def test_ncl_validation():
    g = NCLinkedPartition(3, [[1, 2], [2, 3]])
    assert g.cover_count == {1: 1, 2: 2, 3: 1}
    with pytest.raises(ArgumentError):
        NCLinkedPartition(3, [[1, 3], [2, 3]])  # 3 minimal in neither block
    with pytest.raises(ArgumentError):
        NCLinkedPartition(4, [[1, 3, 4], [2, 3, 4]])  # two shared elements
    with pytest.raises(ArgumentError):
        NCLinkedPartition(4, [[1, 3], [2, 4]])  # crossing
    with pytest.raises(ArgumentError):
        NCLinkedPartition(2, [[1, 2], [2]])  # shared element in a singleton


def test_ncl_small_counts():
    # |NCL(n)| is the large Schroeder number r_(n-1), where r_0 = 1 and
    # r_m = r_(m-1) + sum_k r_k r_(m-1-k).
    schroeder = [1]
    for m in range(1, 9):
        schroeder.append(schroeder[m - 1] + sum(schroeder[k] * schroeder[m - 1 - k] for k in range(m)))
    assert schroeder[:4] == [1, 2, 6, 22]
    assert [len(enumerate_ncl(n)) for n in range(1, 10)] == schroeder
    got3 = {g.blocks for g in enumerate_ncl(3)}
    assert got3 == {
        ((1,), (2,), (3,)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1, 2, 3),),
        ((1, 2), (2, 3)),
    }


def test_ncl_elements_all_validate():
    for n in range(1, 7):
        for g in enumerate_ncl(n):
            NCLinkedPartition(g.n, g.blocks)  # re-validate canonical output


def test_ncl_classify_worked_example():
    g = NCLinkedPartition(
        12, [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]]
    )
    ext, intr, singly, doubly = ncl_classify(g)
    assert set(ext) == {(1, 4, 6, 9), (10, 11)}
    assert set(intr) == {(2, 3), (4, 5), (6, 7, 8), (11, 12)}
    assert doubly == frozenset({4, 6, 11})
    assert singly == frozenset({1, 2, 3, 5, 7, 8, 9, 10, 12})


def test_ncl_classify_single_exterior_example():
    g = NCLinkedPartition(10, [[1, 4, 5, 9], [2, 3], [5, 6, 7], [8], [9, 10]])
    ext, intr, _, _ = ncl_classify(g)
    assert ext == ((1, 4, 5, 9),)
    assert len(intr) == 4


def test_ncl_classify_embeds_non_crossing_partitions():
    # A non-crossing partition is the linked partition with the same blocks.
    for n in range(1, 9):
        for p in enumerate_nc(n):
            ext, intr, singly, doubly = ncl_classify(p)
            assert (ext, intr) == tuple(tuple(p.blocks[i] for i in split) for split in (p.ext_blocks, p.int_blocks))
            assert singly == frozenset(range(1, n + 1)) and doubly == frozenset()
    assert ncl_classify(NCPartition(3, [[1, 3], [2]]))[:2] == (((1, 3),), ((2,),))
    for other in (SetPartition(4, [(1, 3), (2, 4)]), ((1, 2),), None):
        with pytest.raises(ArgumentError, match="linked or non-crossing partition"):
            ncl_classify(other)


def test_partition_json_roundtrip():
    p = NCPartition(4, [[1, 4], [2, 3]])
    assert partition_from_json(p.to_json()) == p
    g = NCLinkedPartition(3, [[1, 2], [2, 3]])
    assert partition_from_json(g.to_json(), kind="ncl") == g


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3},
        {"blocks": [[1]]},
        {"n": "3", "blocks": [[1, 2, 3]]},
        {"n": 2, "blocks": [[1, None]]},
        {"n": 3, "blocks": 5},
        [1, 2],
        {"n": 10**18, "blocks": [[1]]},
    ],
    ids=["no-blocks", "no-n", "string-n", "none-element", "int-blocks", "list", "n-far-beyond-the-blocks"],
)
def test_partition_from_json_refuses_a_malformed_form(data):
    for kind in ("nc", "ncl", "set"):
        with pytest.raises(ArgumentError):
            partition_from_json(data, kind=kind)


def test_ncl_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_ncl(11)
