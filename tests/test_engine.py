import collections
import itertools
import math
import random
import tracemalloc

import pytest

from downsets import (
    CapacityError,
    DomainError,
    NotADownSet,
    Poset,
    StructureError,
    TraceMismatch,
    antichain,
    boolean,
    chain,
    chain_product_count,
    containment_counts,
    count_downsets,
    count_via_decomposition,
    decompose,
    dedekind_standard,
    direct_sum,
    enumerate_downsets,
    from_covers,
    phi_forward,
    phi_inverse,
    product,
    sub_poset,
)
from downsets.boolean import _symmetric_orbits
from downsets import cli, engine, poset_to_text
from downsets.engine import _pivot, containment_sums, coordinate_automorphisms, orbits
from downsets.poset import _by_bytes, _byte_tables, _or_table, _relabel
from conftest import random_poset, random_submask


def test_counts_on_known_shapes():
    assert count_downsets(chain(0)) == 1
    assert count_downsets(chain(5)) == 6
    assert count_downsets(antichain(5)) == 32
    assert count_downsets(boolean(2).lattice) == 6
    assert count_downsets(boolean(3).lattice) == 20


def test_count_multiplies_over_components():
    p = direct_sum(chain(3), antichain(2))
    assert count_downsets(p) == 4 * 4


def fence(n):
    'zigzag 0 < 1 > 2 < 3 > ...: each point covers or is covered by its neighbours'
    return from_covers(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [1, 2, 5, 10, 128])
def test_fence_counts_are_fibonacci(n):
    # a down-set of a fence is fixed by which points it keeps, with no kept
    # peak next to a dropped valley: d(fence(n)) = F(n + 2)
    assert count_downsets(fence(n)) == fibonacci(n + 2)


def test_closed_forms_at_the_point_cap():
    'deep splits and masks wider than two machine words'
    assert count_downsets(chain(128)) == 129
    assert count_downsets(antichain(128)) == 2 ** 128
    assert count_downsets(product(chain(4), chain(32))) == math.comb(36, 4)


def test_enumerate_matches_count_and_is_sorted():
    p = boolean(3).lattice
    fam = enumerate_downsets(p)
    assert len(fam) == 20
    members = list(fam)
    assert members == sorted(members)
    for d in members:
        assert p.is_downset(d)


def test_enumerate_respects_limit():
    with pytest.raises(CapacityError):
        enumerate_downsets(antichain(10), limit=100)


def test_decomposition_counts_to_the_same_total():
    p = boolean(3).lattice
    for m_mask in (0, 0b10101010, p.carrier, 0b00000110):
        assert count_via_decomposition(p, m_mask) == 20


def test_atom_level_decomposition_of_the_cube():
    'residual counts over the 8 subsets of the atom level, smallest first'
    p = boolean(3).lattice
    atoms = 0b00010110  # words 1, 2, 4
    counts = sorted(term.residual_count for term in decompose(p, atoms))
    assert counts == [1, 1, 1, 2, 2, 2, 2, 9]


def test_decomposition_terms_carry_residual_masks():
    'on chain(4) over M = {0, 1}, only the full trace leaves points: 2 and 3'
    p = chain(4)
    terms = sorted(decompose(p, 0b0011), key=lambda term: term.N)
    assert [(term.N, term.mask) for term in terms] == [(0, 0), (0b01, 0), (0b11, 0b1100)]
    assert [term.residual_count for term in terms] == [1, 1, 3]


def test_terms_of_one_decomposition_share_a_memo():
    'counted in reverse order, the terms give the counts and sum of a forward pass'
    ctx = boolean(4)
    forward = list(decompose(ctx.lattice, ctx.levels[2]))
    counts = [term.residual_count for term in forward]
    backward = list(decompose(ctx.lattice, ctx.levels[2]))
    assert len({id(term._memo) for term in backward}) == 1
    assert [term.residual_count for term in reversed(backward)] == counts[::-1]
    assert sum(counts) == count_downsets(ctx.lattice) == 168


def _assert_memo_keys_are_connected(p, memo):
    for key in memo:
        assert key & (key - 1), key  # two or more points
        assert len(p.components(key)) == 1, key


def test_memo_keys_are_connected_sets():
    'a disconnected set counts as the product of its components and is never stored'
    middle = sub_poset(boolean(6), "middle")
    memo = {}
    assert count_downsets(middle, None, memo) == 7741776
    _assert_memo_keys_are_connected(middle, memo)
    assert len(memo) < 5000
    rng = random.Random(2207)
    for _ in range(30):
        p = random_poset(rng, 12, density=rng.choice([0.1, 0.2, 0.4]))
        memo = {}
        assert count_downsets(p, None, memo) == len(enumerate_downsets(p))
        _assert_memo_keys_are_connected(p, memo)


def _reference_count(p, mask, memo):
    'the plain loop: split with Poset.components, pivot with _pivot, memoize connected sets'
    total = 1
    for comp in p.components(mask):
        if comp & (comp - 1) == 0:
            total *= 2
            continue
        if comp not in memo:
            x = _pivot(p, comp)
            memo[comp] = (_reference_count(p, comp & ~p.up[x], memo)
                          + _reference_count(p, comp & ~p.down[x], memo))
        total *= memo[comp]
    return total


def test_memo_matches_a_reference_loop():
    'the same pivots: equal memo dicts, stored in the same order, over whole posets and shared sub-masks'
    middle = sub_poset(boolean(6), "middle")
    memo, reference = {}, {}
    assert count_downsets(middle, None, memo) == _reference_count(middle, middle.carrier, reference)
    assert list(memo.items()) == list(reference.items())
    rng = random.Random(4711)
    for _ in range(30):
        p = random_poset(rng, 24, density=rng.choice([0.05, 0.1, 0.2, 0.4]))
        memo, reference = {}, {}
        for mask in (p.carrier, random_submask(rng, p.carrier), random_submask(rng, p.carrier)):
            assert count_downsets(p, mask, memo) == _reference_count(p, mask, reference)
        assert list(memo.items()) == list(reference.items())


def _height_two(rng, lowers, uppers, k):
    'lowers minimal points, then uppers maximal points, each over k random lowers'
    covers = [(low, lowers + u) for u in range(uppers) for low in rng.sample(range(lowers), k)]
    return from_covers(lowers + uppers, covers)


def test_memo_budget_bounds_the_count(monkeypatch):
    middle = sub_poset(boolean(5), "middle")
    monkeypatch.setattr(engine, "MEMO_BUDGET", 121)
    memo = {}
    assert count_downsets(middle, None, memo) == 6212
    assert len(memo) == 121
    monkeypatch.setattr(engine, "MEMO_BUDGET", 120)
    memo = {}
    with pytest.raises(CapacityError, match="memo budget of 120 entries"):
        count_downsets(middle, None, memo)
    assert len(memo) == 120
    p = _height_two(random.Random(2024), 16, 16, 3)
    monkeypatch.setattr(engine, "MEMO_BUDGET", 40)
    memo = {}
    with pytest.raises(CapacityError, match="memo budget of 40 entries"):
        count_downsets(p, None, memo)
    assert len(memo) == 40


def test_count_past_the_memo_budget_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "height2.poset"
    path.write_text(poset_to_text(_height_two(random.Random(2024), 16, 16, 3)))
    assert cli.main(["count", str(path)]) == 0
    assert capsys.readouterr().out == "2536392\n"
    monkeypatch.setattr(engine, "MEMO_BUDGET", 50)
    for extra in ([], ["--pivot", "0,1,2,3"]):
        assert cli.main(["count", str(path), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "capacity error: count needs more than the memo budget of 50 entries\n"


def test_count_rejects_masks_outside_the_carrier():
    p = chain(3)
    for mask in (0b1000, -1):
        with pytest.raises(IndexError) as expected:
            p.components(mask)
        with pytest.raises(IndexError) as got:
            count_downsets(p, mask)
        assert str(got.value) == str(expected.value)


def test_phi_round_trip_on_every_downset():
    p = boolean(3).lattice
    m = 0b10110101
    for d in enumerate_downsets(p):
        n = d & m
        r = phi_forward(p, m, n, d)
        assert r & p.down_closure(n) == 0
        assert phi_inverse(p, m, n, r) == d


def test_phi_rejects_wrong_trace():
    p = chain(3)
    with pytest.raises(TraceMismatch):
        phi_forward(p, 0b001, 0b001, 0b000)
    with pytest.raises(NotADownSet):
        phi_forward(p, 0b001, 0b000, 0b010)


def test_phi_inverse_rejects_overlap_with_removed_zone():
    p = chain(3)
    # residual after removing down(0) and up(nothing) keeps points 1, 2
    with pytest.raises(NotADownSet):
        phi_inverse(p, 0b001, 0b001, 0b001)


def test_phi_inverse_rejects_a_residual_that_is_not_a_downset():
    # the residual of chain(3) under trace {0} is points 1 < 2, and {2} lacks 1
    with pytest.raises(NotADownSet, match="not a down-set of the residual"):
        phi_inverse(chain(3), 0b001, 0b001, 0b100)


def test_phi_inverse_rejects_masks_outside_the_carrier():
    p = chain(3)
    with pytest.raises(DomainError):
        phi_inverse(p, 0, 0, -1)
    with pytest.raises(DomainError):
        phi_inverse(p, 0, 0, 0b1000)


def test_containment_counts_small():
    lattice = boolean(2).lattice
    fam = enumerate_downsets(lattice)
    below, above = containment_counts(lattice, fam)
    assert sum(below) == 20
    assert sum(above) == 20
    assert below[0] == 1  # the empty set contains itself only
    assert above[0] == 6


def test_containment_counts_match_a_double_loop():
    """B3, and a family of more than 256 members wider than 63 bits; the
    sums of Python-int weights past 2**63 stay exact"""
    families = [(q, enumerate_downsets(q)) for q in (boolean(3).lattice, direct_sum(chain(7), chain(59)))]
    wide = families[1][1]
    assert len(wide) > 256 and max(wide) >= 1 << 63
    for q, members in families:
        below = [sum(1 for e in members if e & ~d == 0) for d in members]
        above = [sum(1 for d in members if e & ~d == 0) for e in members]
        assert containment_counts(q, members) == (below, above)
        weights = [(1 << 70) + i for i in range(len(members))]
        sums = [[sum(w for e, w in zip(members, weights) if e & ~d == 0), b] for d, b in zip(members, below)]
        columns = [weights, [1] * len(members)]
        assert [list(row) for row in zip(*(containment_sums(q, members, col) for col in columns))] == sums


def test_containment_sums_on_shuffled_points():
    """Seeded random posets with shuffled point indices, so index order is no
    linear extension, and the 0-point poset: a vector, a matrix of small
    numbers and one past 2**63, summed by columns, each against a double
    loop"""
    rng = random.Random(1414)
    posets = [Poset([])]
    for _ in range(40):
        p = random_poset(rng, 8, density=rng.choice([0.2, 0.4]))
        perm = rng.sample(range(p.n), p.n)
        rows = [0] * p.n
        for i in range(p.n):
            rows[perm[i]] = _relabel(p.up[i], perm)
        posets.append(Poset(rows))
    assert any(q.up[i] & ((1 << i) - 1) for q in posets for i in range(q.n))
    for q in posets:
        members = enumerate_downsets(q)
        k = len(members)
        vector = [[rng.randrange(100)] for _ in range(k)]
        small = [[rng.randrange(1000) for _ in range(3)] for _ in range(k)]
        wide = [[(1 << 64) + rng.randrange(1 << 70), 1] for _ in range(k)]
        for rows in (vector, small, wide):
            loop = [[sum(col) for col in zip(*(r for r, e in zip(rows, members) if e & ~d == 0))]
                    for d in members]
            got = zip(*(containment_sums(q, members, list(col)) for col in zip(*rows)))
            assert [list(row) for row in got] == loop
        below = [sum(1 for e in members if e & ~d == 0) for d in members]
        above = [sum(1 for d in members if e & ~d == 0) for e in members]
        assert containment_counts(q, members) == (below, above)
    assert enumerate_downsets(posets[0]) == (0,)


def test_containment_counts_on_b5():
    'B5: 7581 down-sets, against the counter'
    lattice = boolean(5).lattice
    fam = enumerate_downsets(lattice)
    memo = {}
    below = [count_downsets(lattice, d, memo) for d in fam]
    above = [count_downsets(lattice, lattice.carrier & ~d, memo) for d in fam]
    assert containment_counts(lattice, fam) == (below, above)


def test_chain_product_count_past_63_bits():
    # chain(n) x (C7 + C59) splits into two grids, each a binomial count
    q = direct_sum(chain(7), chain(59))
    for n in (2, 3, 20):
        assert chain_product_count(n, q) == math.comb(n + 7, 7) * math.comb(n + 59, 59)


def test_chain_product_count_against_direct():
    rng = random.Random(11)
    for _ in range(25):
        q = random_poset(rng, 5)
        for n in range(4):
            direct = count_downsets(product(chain(n), q)) if n else 1
            assert chain_product_count(n, q) == direct


def test_chain_product_count_facts():
    q = boolean(2).lattice
    assert chain_product_count(1, q) == 6
    assert chain_product_count(2, q) == 20  # sum of below-counts
    with pytest.raises(DomainError):
        chain_product_count(-1, q)


def test_random_posets_three_way_agreement():
    rng = random.Random(4242)
    mask_rng = random.Random(4243)  # kept apart so rng draws the same posets and pivot sets
    for _ in range(150):
        p = random_poset(rng, 9, density=rng.choice([0.1, 0.3, 0.6]))
        total = count_downsets(p)
        assert total == len(enumerate_downsets(p))
        mask = random_submask(mask_rng, p.carrier)
        assert count_downsets(p, mask) == count_downsets(p.induced(mask))
        m_mask = random_submask(rng, p.carrier)
        assert total == count_via_decomposition(p, m_mask)
        for term in decompose(p, m_mask):
            assert term.weight == 1
            assert term.mask == p.carrier & ~p.updown(m_mask, term.N)
            assert term.residual_count == count_downsets(p.induced(term.mask))


# -- orbits of coordinate permutations -----------------------------------------


@pytest.mark.parametrize("n, expected", [(0, 2), (1, 3), (2, 5), (3, 10), (4, 30), (5, 210)])
def test_orbits_of_the_downsets_of_boolean_lattices(n, expected):
    'inequivalent monotone Boolean functions under coordinate swaps (OEIS A003182)'
    lattice = boolean(n).lattice
    fam = enumerate_downsets(lattice)
    found = list(orbits(fam, coordinate_automorphisms(lattice)))
    assert len(found) == expected
    assert sum(len(orbit) for orbit in found) == len(fam)
    assert sorted(mask for orbit in found for mask in orbit) == list(fam)
    assert [orbit[0] for orbit in found] == sorted(min(orbit) for orbit in found)


def test_orbits_reject_a_set_the_permutations_leave():
    swap = coordinate_automorphisms(boolean(2).lattice)[0]  # swaps words 01 and 10
    assert list(orbits([0b0001, 0b0011, 0b0101], [swap])) == [[0b0001], [0b0011, 0b0101]]
    with pytest.raises(StructureError):
        list(orbits([0b0001, 0b0011], [swap]))


def test_orbits_keep_one_set_of_the_members():
    'the orbits of the 7581 down-sets of B5 peak under 1.2 MB; a second set of the masks seen took them past 1.4 MB'
    lattice = boolean(5).lattice
    fam = enumerate_downsets(lattice)
    perms = coordinate_automorphisms(lattice)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        found = list(orbits(fam, perms))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(found) == 210
    assert peak < 1.2 * 2 ** 20


@pytest.mark.parametrize("n", [0, 5, 8, 16, 20, 50, 128])
def test_byte_tables_relabel_like_the_bit_loop(n):
    'OR tables of relabel rows and of closure rows against the bit loops'
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    p = from_covers(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 3 / n])
    full = (1 << n) - 1
    masks = [0, full] + [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(200)]
    for rows, loop in [([1 << point for point in perm], lambda mask: _relabel(mask, perm)),
                       (p.down, p.down_closure), (p.up, p.up_closure)]:
        assert _or_table(rows[:8]) == [loop(mask) for mask in range(1 << min(n, 8))]
        tables = _byte_tables(rows)
        for mask in masks:
            assert _by_bytes(mask, tables) == loop(mask)
        with pytest.raises(IndexError):  # no table holds a point past the rows
            _by_bytes((1 << n) | full, tables)
    assert _or_table([]) == [0]


def test_orbits_reject_members_outside_the_permutations():
    swap = coordinate_automorphisms(boolean(2).lattice)[0]
    for masks in ([0b0001, 0b10000], [-1, 0b0001]):
        with pytest.raises(DomainError):
            list(orbits(masks, [swap]))
    assert list(orbits([0b10000], [])) == [[0b10000]]


def test_containment_counts_take_members_in_any_order():
    lattice = boolean(3).lattice
    fam = enumerate_downsets(lattice)
    below, above = containment_counts(lattice, fam)
    shuffled = list(fam)
    random.Random(3).shuffle(shuffled)
    at = [fam.index(d) for d in shuffled]
    assert containment_counts(lattice, shuffled) == ([below[i] for i in at], [above[i] for i in at])
    weights = list(range(len(fam)))
    sums = containment_sums(lattice, fam, weights)
    assert containment_sums(lattice, shuffled, [weights[i] for i in at]) == [sums[i] for i in at]


def test_containment_counts_reject_a_family_that_is_not_all_the_downsets():
    lattice = boolean(2).lattice
    every = enumerate_downsets(lattice)
    for fam, error in [((0, 0b11), StructureError),  # 0b11 - {1} = 0b01 is a down-set, not a member
                       ((0, 0b01, 0b10), NotADownSet),  # point 1 (word 01) without point 0 below it
                       (every + every[-1:], StructureError)]:  # a member listed twice
        with pytest.raises(error):
            containment_counts(lattice, fam)
        with pytest.raises(error):
            containment_sums(lattice, fam, [1] * len(fam))


def brute_force_orbits(m, fam):
    """(least member, size) per orbit of all m! coordinate permutations and
    duality on the down-sets fam of B(m): every group element applied, one
    point at a time"""
    size = 1 << m
    words = [[sum(1 << perm[j] for j in range(m) if x >> j & 1) for x in range(size)]
             for perm in itertools.permutations(range(m))]
    least = collections.Counter()
    for d in fam:
        images = []
        for word in words:
            images.append(sum(1 << word[x] for x in range(size) if d >> x & 1))
            images.append(sum(1 << word[(size - 1) ^ x] for x in range(size) if not d >> x & 1))
        least[min(images)] += 1
    return sorted(least.items())


@pytest.mark.parametrize("m, expected", [(0, 1), (1, 2), (2, 3), (3, 6), (4, 17), (5, 112)])
def test_standard_orbits_match_a_brute_force(m, expected):
    'swap orbits joined by duality against every element of the group; the brute force takes 7 s at m = 5'
    lattice = boolean(m).lattice
    fam = enumerate_downsets(lattice)
    found = _symmetric_orbits(lattice, fam)
    assert len(found) == expected
    assert sorted(d for orbit in found for d in orbit) == list(fam)
    if m <= 4:
        assert [(orbit[0], len(orbit)) for orbit in found] == brute_force_orbits(m, fam)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_matches_a_double_loop(n):
    'the sum over orbits and transposed rows against below(D & E) * above(D | E) over every ordered pair'
    fam = enumerate_downsets(boolean(n - 2).lattice)
    below = {x: sum(e & x == e for e in fam) for x in fam}
    above = {x: sum(e & x == x for e in fam) for x in fam}
    assert sum(below[d & e] * above[d | e] for d in fam for e in fam) == dedekind_standard(n).value


@pytest.mark.parametrize("which, terms, classes", [("middle5", 1024, 34), ("B4", 64, 11)])
def test_weighted_decomposition_counts_the_whole_poset(which, terms, classes):
    'traces on the upper points of middle(5) and on level 2 of B4 are graphs on 5 and 4 vertices'
    if which == "middle5":
        p = sub_poset(boolean(5), "middle")
        m_mask = p.carrier & ~p.minimal_points()
    else:
        ctx = boolean(4)
        p, m_mask = ctx.lattice, ctx.levels[2]
    reduced = list(decompose(p, m_mask, coordinate_automorphisms(p)))
    assert len(list(decompose(p, m_mask))) == terms
    assert len(reduced) == classes
    assert sum(term.weight for term in reduced) == terms
    assert sum(term.weight * term.residual_count for term in reduced) == count_downsets(p)


def test_decompose_rejects_permutations_that_are_not_symmetries_of_the_pivot_set():
    p = antichain(3)
    with pytest.raises(DomainError):
        list(decompose(p, 0b011, [(0, 2, 1)]))  # an automorphism, but it moves point 1 out of M
    with pytest.raises(DomainError):
        list(decompose(chain(2), 0b11, [(1, 0)]))  # maps M onto itself, but reverses the order
    with pytest.raises(DomainError):
        list(decompose(p, 0b011, [(1, 0)]))  # not a permutation of the carrier
    assert sum(term.weight for term in decompose(p, 0b011, [(1, 0, 2)])) == 4
