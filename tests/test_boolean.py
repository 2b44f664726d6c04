import math

import pytest

from downsets import (
    CapacityError,
    DomainError,
    Poset,
    StructureError,
    boolean,
    count_downsets,
    dedekind_standard,
    dedekind_via_theorem2,
    level_mask,
    sub_poset,
    theorem2_residual_shape,
)
from frozen import B_VALUES, BM_COLUMN, BMM_COLUMN


def test_lattice_indexing_is_by_word():
    ctx = boolean(3)
    p = ctx.lattice
    assert p.n == 8
    assert p.leq(0b001, 0b011)
    assert not p.leq(0b011, 0b001)
    assert p.labels[5] == "101"
    assert [bin(m).count("1") for m in ctx.levels] == [1, 3, 3, 1]


def test_boolean_bounds():
    assert boolean(0).lattice.n == 1
    with pytest.raises(DomainError):
        boolean(-1)
    with pytest.raises(CapacityError) as info:
        boolean(8)
    assert str(info.value) == "lattice on 8 atoms has 256 points, cap is 128"


@pytest.mark.parametrize("n", range(8))
def test_boolean_up_rows_are_containment(n):
    'bit y of the up row of x is set exactly when x is a subset of y'
    up = boolean(n).lattice.up
    size = 1 << n
    for x in range(size):
        assert [(up[x] >> y) & 1 for y in range(size)] == [int(x & y == x) for y in range(size)]


def test_boolean_refuses_an_over_cap_size_before_it_allocates():
    'n is compared with the cap, so 2^n is never built, and only written out while it is short'
    import tracemalloc

    for build in (boolean, lambda n: theorem2_residual_shape(n, 0)):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as info:
                build(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "lattice on 100000000 atoms has 2^100000000 points, cap is 128"
        assert peak < 1 << 20


def test_level_mask_collects_levels():
    ctx = boolean(4)
    m = level_mask(ctx, 1, 2)
    assert bin(m).count("1") == 4 + 6


def test_regions():
    ctx = boolean(5)
    assert sub_poset(ctx, "full").n == 32
    assert sub_poset(ctx, "upper").n == 10 + 10 + 5 + 1
    assert sub_poset(ctx, "lower").n == 1 + 5 + 10 + 10
    assert sub_poset(ctx, "middle").n == 20
    with pytest.raises(DomainError):
        sub_poset(ctx, "sideways")


def test_middle_region_shrinks_to_nothing():
    assert sub_poset(boolean(3), "middle").n == 0
    assert count_downsets(sub_poset(boolean(3), "middle")) == 1
    assert sub_poset(boolean(4), "middle").n == 6
    with pytest.raises(DomainError):
        sub_poset(boolean(2), "middle")


def test_middle_counts_small():
    assert count_downsets(sub_poset(boolean(4), "middle")) == 64
    assert count_downsets(sub_poset(boolean(5), "middle")) == 6212


def test_ladder_reproduces_all_columns():
    ladder = dedekind_via_theorem2(6, {3: 1, 4: 64, 5: 6212, 6: 7741776})
    assert ladder.b == B_VALUES
    assert ladder.bm == BM_COLUMN
    assert ladder.bmm == BMM_COLUMN
    assert ladder.value == 7828354


def test_ladder_rejects_a_negative_atom_count():
    with pytest.raises(DomainError):
        dedekind_via_theorem2(-1, {})


def test_ladder_needs_middle_inputs():
    with pytest.raises(DomainError):
        dedekind_via_theorem2(5, {3: 1, 4: 64})


def test_ladder_without_middle_region_terms():
    assert dedekind_via_theorem2(2, {}).b == {0: 2, 1: 3, 2: 6}


def test_standard_small_values():
    for n in range(2, 6):
        assert dedekind_standard(n).value == B_VALUES[n]


def test_standard_summand_counts():
    'one summand per unordered pair of down-sets of the half-size cube'
    run = dedekind_standard(5)
    k = count_downsets(boolean(3).lattice)
    assert run.summands == k * (k + 1) // 2 == 210
    assert dedekind_standard(6).summands == 14196


def test_standard_domain():
    with pytest.raises(DomainError):
        dedekind_standard(1)
    with pytest.raises(CapacityError):
        dedekind_standard(8)


def test_residual_shapes_of_atom_decomposition():
    'every subset N of the atoms, for n = 3..6; atom d is the point of word 2^d'
    for n in (3, 4, 5, 6):
        for chosen in range(1 << n):
            n_mask = sum(1 << (1 << d) for d in range(n) if chosen >> d & 1)
            k = bin(chosen).count("1")
            want = {0: "singleton-bottom", 1: "empty"}.get(k, "upper(%d)" % k)
            assert theorem2_residual_shape(n, n_mask) == want


def test_residual_shape_rejects_non_atoms():
    with pytest.raises(DomainError):
        theorem2_residual_shape(3, 0b1000)  # word 3 has two digits


@pytest.mark.parametrize("n_mask", [0, 0b10, 0b10110])
def test_residual_shape_rejects_a_wrong_residual(monkeypatch, n_mask):
    'k = 0, 1 and 3 atoms: a removal set with point 7 toggled leaves a wrong residual'
    updown = Poset.updown
    monkeypatch.setattr(Poset, "updown", lambda self, m, n: updown(self, m, n) ^ 1 << 7)
    with pytest.raises(StructureError):
        theorem2_residual_shape(3, n_mask)


def test_binomial_convolution_matches_direct_counts():
    'the ladder equals brute-force counting of the region posets'
    for n in range(2, 5):
        bmm = {
            k: count_downsets(sub_poset(boolean(k), "middle"))
            for k in range(3, n + 1)
        }
        ladder = dedekind_via_theorem2(n, bmm)
        assert ladder.value == count_downsets(boolean(n).lattice)
        if n >= 2:
            lower = count_downsets(sub_poset(boolean(n), "lower"))
            assert ladder.bm[n] == lower


def _words_in(n, lo, hi):
    'mask of the n-digit words with lo <= ones <= hi, by a popcount filter'
    return sum(1 << w for w in range(1 << n) if lo <= bin(w).count("1") <= hi)


@pytest.mark.parametrize("n", range(8))
def test_level_mask_clamps_every_range(n):
    'lo < 0, hi > n, lo > hi and hi <= -2, where an unclamped slice stop would wrap round to the top levels'
    ctx = boolean(n)
    for lo in range(-3, n + 4):
        for hi in range(-3, n + 4):
            assert level_mask(ctx, lo, hi) == _words_in(n, lo, hi), (lo, hi)


@pytest.mark.parametrize("n", range(8))
def test_region_point_counts(n):
    'each region keeps the words with lo..n-hi ones; middle needs 3 atoms'
    ctx = boolean(n)
    ranges = {"full": (0, n), "upper": (2, n), "lower": (0, n - 2), "middle": (2, n - 2)}
    for which, (lo, hi) in ranges.items():
        if which == "middle" and n < 3:
            with pytest.raises(DomainError, match="^middle region needs at least 3 atoms, got %d$" % n):
                sub_poset(ctx, which)
            continue
        assert sub_poset(ctx, which).n == bin(_words_in(n, lo, hi)).count("1"), which
    assert sub_poset(ctx, "full") is ctx.lattice


def test_unknown_region_message():
    with pytest.raises(DomainError) as info:
        sub_poset(boolean(4), "sideways")
    assert str(info.value) == "unknown region 'sideways', expected one of full, upper, lower, middle"
