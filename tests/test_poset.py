import random
import sys

import pytest

from downsets import (
    CapacityError,
    CycleError,
    DomainError,
    ParseError,
    Poset,
    antichain,
    chain,
    direct_sum,
    from_covers,
    poset_from_text,
    poset_to_text,
    product,
)
from downsets.engine import _pivot
from downsets.errors import NotADownSet
from downsets.poset import _subsets
from conftest import random_poset, random_submask


def diamond():
    return from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_from_covers_builds_transitive_order():
    p = diamond()
    assert p.leq(0, 3)
    assert p.leq(0, 0)
    assert not p.leq(1, 2)
    assert not p.leq(3, 0)
    # repeated and implied covers, listed out of topological order
    assert from_covers(4, [(1, 3), (2, 3), (0, 1), (1, 3), (0, 2), (0, 3), (0, 1)]) == p


def test_from_covers_rejects_cycles():
    with pytest.raises(CycleError) as info:
        from_covers(3, [(0, 1), (1, 2), (2, 0)])
    assert info.value.position == 2
    with pytest.raises(CycleError) as info:
        from_covers(1, [(0, 0)])
    assert info.value.position == 0
    # (3, 0) closes the first cycle; the later (4, 2) would close another
    with pytest.raises(CycleError) as info:
        from_covers(5, [(2, 3), (0, 1), (2, 4), (1, 2), (3, 0), (4, 2)])
    assert info.value.position == 4
    assert str(info.value) == "cover (3, 0) closes a directed cycle"


def test_from_covers_rejects_bad_indices():
    with pytest.raises(IndexError):
        from_covers(2, [(0, 5)])


def test_poset_is_immutable():
    p = chain(3)
    with pytest.raises(AttributeError):
        p.n = 7


def test_direct_construction_validates_rows():
    # 0 < 1 and 1 < 2 without 0 < 2 is not an order
    with pytest.raises(ValueError):
        Poset((0b011, 0b110, 0b100))
    # missing reflexive bit
    with pytest.raises(ValueError):
        Poset((0b010, 0b010))
    # mutual order between distinct points
    with pytest.raises(ValueError):
        Poset((0b11, 0b11))


def test_direct_construction_checks_the_carrier_and_the_cap():
    with pytest.raises(ValueError, match="bits outside the carrier"):
        Poset([0b11])  # row 0 names a point 1 that does not exist
    with pytest.raises(CapacityError):
        Poset([1 << i for i in range(129)])


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c", "d")])
def test_construction_needs_one_label_per_point(labels):
    'too few labels would end induced in an IndexError; one too many would be written out of range'
    with pytest.raises(ValueError, match="labels has %d entries for 3 points" % len(labels)):
        Poset([1, 2, 4], labels=labels)
    with pytest.raises(ValueError, match="labels has"):
        from_covers(3, [(0, 1)], labels=labels)
    assert Poset([1, 2, 4], labels=("a", "b", "c")).induced(0b110).labels == ("b", "c")


def test_construction_needs_one_parent_index_per_point():
    with pytest.raises(ValueError, match="parent_map has 2 entries for 3 points"):
        Poset([1, 2, 4], parent_map=(0, 1))
    with pytest.raises(ValueError, match="parent_map has 4 entries for 3 points"):
        Poset([1, 2, 4], parent_map=(0, 1, 2, 3))


def test_induced_and_dual_build_through_the_checked_constructor(monkeypatch):
    'a sub-poset or dual is checked where it is built, by one Poset.__init__ call'
    p = from_covers(4, [(0, 1), (1, 2), (0, 3)], labels="abcd")
    calls = []
    original = Poset.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counted)
    sub = p.induced(0b1011)
    assert len(calls) == 1
    assert (sub.covers(), sub.labels, sub.parent_map) == ([(0, 1), (0, 2)], ("a", "b", "d"), (0, 1, 3))
    dual = p.dual()
    assert len(calls) == 2
    assert (dual.up, dual.labels) == (p.down, p.labels)


def test_equal_posets_hash_equal():
    'equality ignores labels and origin, and so does the hash'
    p = chain(3)
    q = from_covers(3, [(0, 1), (1, 2)])
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash(Poset(p.up, labels=("a", "b", "c")))


def test_closures_and_downset_predicate():
    p = diamond()
    assert p.down_closure(0b1000) == 0b1111
    assert p.up_closure(0b0001) == 0b1111
    assert p.is_downset(0b0111)
    assert not p.is_downset(0b1000)
    assert p.is_upset(0b1110)


def test_minimal_and_maximal():
    p = diamond()
    assert p.minimal_points() == 0b0001
    assert p.maximal_points() == 0b1000
    assert p.minimal_points(0b0110) == 0b0110


def test_minimal_and_maximal_reject_negative_masks():
    p = diamond()
    with pytest.raises(IndexError):
        p.minimal_points(-1)
    with pytest.raises(IndexError):
        p.maximal_points(-1)


def test_covers_is_transitive_reduction():
    p = from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers() == [(0, 1), (1, 2)]
    assert diamond().covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_updown_removes_up_of_rest_and_down_of_trace():
    p = diamond()
    m = 0b0110
    gone = p.updown(m, 0b0010)
    # up(point 2) together with down(point 1)
    assert gone == (p.up_closure(0b0100) | p.down_closure(0b0010))


def test_updown_requires_downset_of_the_induced_poset():
    p = chain(3)
    with pytest.raises(NotADownSet):
        p.updown(0b011, 0b010)  # {1} is not a down-set of the chain on {0,1}


def test_updown_requires_the_trace_inside_the_pivot_set():
    with pytest.raises(NotADownSet):
        chain(3).updown(0b001, 0b010)  # N = {1} is not inside M = {0}


def test_updown_matches_the_closures():
    'updown is up(M - N) | down(N) for a down-set N of M, and rejects N exactly when a down row leaves N inside M'
    rng = random.Random(1983)
    for _ in range(60):
        p = random_poset(rng, 20, density=rng.choice([0.1, 0.2, 0.4]))
        m = random_submask(rng, p.carrier)
        n = p.down_closure(random_submask(rng, m)) & m
        assert p.updown(m, n) == p.up_closure(m & ~n) | p.down_closure(n)
        bent = n ^ random_submask(rng, m)
        if any(p.down[i] & m & ~bent for i in range(p.n) if bent >> i & 1):
            with pytest.raises(NotADownSet, match="not a down-set of the sub-poset on M"):
                p.updown(m, bent)
        else:
            assert p.updown(m, bent) == p.up_closure(m & ~bent) | p.down_closure(bent)


def test_induced_keeps_relation_and_backmap():
    p = diamond()
    sub = p.induced(0b1011)
    assert sub.n == 3
    assert sub.parent_map == (0, 1, 3)
    assert sub.leq(0, 2) and sub.leq(1, 2) and not sub.leq(2, 0)
    assert sub.to_parent_mask(0b101) == 0b1001


def test_induced_and_dual_match_validated_construction():
    'sub-posets and duals skip the order checks; their rows must be what the checked path derives'
    rng = random.Random(77)
    for _ in range(60):
        p = random_poset(rng, 10, density=rng.choice([0.1, 0.3, 0.6]))
        sub = p.induced(random_submask(rng, p.carrier))
        checked = Poset(sub.up, parent_map=sub.parent_map)
        assert (sub.up, sub.down, sub.parent_map) == (checked.up, checked.down, checked.parent_map)
        dual = p.dual()
        assert (dual.up, dual.down) == (p.down, p.up)


def test_parent_masks_need_a_parent():
    p = diamond()
    with pytest.raises(DomainError):
        p.to_parent_mask(0b1)


def test_negative_chain_and_antichain_sizes():
    with pytest.raises(DomainError):
        chain(-1)
    with pytest.raises(DomainError):
        antichain(-2)


def test_chain_refuses_an_over_cap_length_before_it_allocates():
    'the cover pairs come lazily, so the point cap is checked before any is built'
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            chain(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "point count 2000000 outside 0..128"
    assert peak < 1 << 20


def test_dual_swaps_directions():
    p = chain(3).dual()
    assert p.leq(2, 0)
    assert not p.leq(0, 2)


def test_product_and_direct_sum_shapes():
    p = product(chain(2), antichain(3))
    assert p.n == 6
    assert p.leq(0, 3)  # (0, j) below (1, j)
    assert not p.leq(0, 4)
    s = direct_sum(chain(2), chain(2))
    assert s.n == 4
    assert not s.leq(0, 2)


def test_product_order_is_componentwise_on_random_factors():
    'every pair of product points against the factor orders, on factors that need not be chains'
    rng = random.Random(20261022)
    for _ in range(40):
        p = random_poset(rng, 16)
        q = random_poset(rng, 128 // max(p.n, 1))
        prod = product(p, q)
        assert prod.n == p.n * q.n <= 128
        for a in range(prod.n):
            i, j = divmod(a, q.n)
            for b in range(prod.n):
                i2, j2 = divmod(b, q.n)
                assert prod.leq(a, b) == (p.leq(i, i2) and q.leq(j, j2))


def test_product_and_direct_sum_respect_the_point_cap():
    with pytest.raises(CapacityError):
        product(chain(12), chain(11))
    with pytest.raises(CapacityError):
        direct_sum(chain(64), chain(65))


def test_direct_sum_pads_missing_labels():
    labelled = Poset([0b01, 0b10], labels=("a", "b"))
    assert direct_sum(labelled, chain(2)).labels == ("a", "b", None, None)
    assert direct_sum(chain(1), labelled).labels == (None, "a", "b")
    assert direct_sum(chain(1), chain(1)).labels is None


def test_components_split_on_comparability():
    s = direct_sum(chain(2), chain(3))
    assert sorted(s.components()) == [0b00011, 0b11100]
    assert chain(4).components() == [0b1111]


def flood_components(p, mask):
    'components of the comparability graph on mask, by breadth-first search over leq'
    left = [i for i in range(p.n) if mask >> i & 1]
    out = []
    while left:
        comp, queue = {left[0]}, [left[0]]
        for i in queue:
            for j in left:
                if j not in comp and (p.leq(i, j) or p.leq(j, i)):
                    comp.add(j)
                    queue.append(j)
        left = [i for i in left if i not in comp]
        out.append(sum(1 << i for i in comp))
    return sorted(out)


def test_comparability_rows_are_up_or_down():
    rng = random.Random(31)
    for _ in range(40):
        p = random_poset(rng, 12, density=rng.choice([0.1, 0.3, 0.6]))
        for q in (p, p.induced(random_submask(rng, p.carrier)), p.dual()):
            assert q.comparable == tuple(u | d for u, d in zip(q.up, q.down))


def test_components_match_a_breadth_first_search():
    rng = random.Random(32)
    for _ in range(60):
        p = random_poset(rng, 12, density=rng.choice([0.05, 0.1, 0.3]))
        mask = random_submask(rng, p.carrier)
        assert sorted(p.components(mask)) == flood_components(p, mask)


def test_pivot_is_a_point_of_the_mask():
    rng = random.Random(33)
    for _ in range(60):
        p = random_poset(rng, 12, density=rng.choice([0.1, 0.3, 0.6]))
        mask = random_submask(rng, p.carrier)
        if mask:
            assert mask >> _pivot(p, mask) & 1


@pytest.mark.parametrize("k", [1, 2, 7, 63])
def test_pivot_balances_the_split_on_a_chain(k):
    # on chain(2k + 1) only the middle point removes k + 1 points either way
    assert _pivot(chain(2 * k + 1), (1 << 2 * k + 1) - 1) == k


def test_pivot_takes_the_largest_product_lowest_index_on_ties():
    'brute force: |up(x) & mask| * |down(x) & mask| per point, ties to the lowest index'
    rng = random.Random(35)
    ties = 0
    for _ in range(300):
        p = random_poset(rng, rng.choice([6, 12, 24]), density=rng.choice([0.0, 0.1, 0.3, 0.6]))
        mask = random_submask(rng, p.carrier)
        if not mask:
            continue
        points = [x for x in range(p.n) if mask >> x & 1]
        product = {x: bin(p.up[x] & mask).count("1") * bin(p.down[x] & mask).count("1")
                   for x in points}
        best = max(product.values())
        leaders = [x for x in points if product[x] == best]
        ties += len(leaders) > 1
        assert _pivot(p, mask) == leaders[0]
    assert ties > 50  # the tie rule is exercised, not only the product


@pytest.mark.parametrize("mask", [0, 1 << 5, random.Random(34).getrandbits(12)])
def test_subsets_yield_every_submask_once_descending(mask):
    expected = [sub for sub in range(mask, -1, -1) if sub & ~mask == 0]
    assert list(_subsets(mask)) == expected
    assert expected[0] == mask and expected[-1] == 0


def test_text_format_round_trip():
    p = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], labels=("a b", None, 'q"\\', "top"))
    text = poset_to_text(p)
    q = poset_from_text(text)
    assert q.n == p.n
    assert q.up == p.up
    assert q.labels == p.labels


@pytest.mark.parametrize("label", ["", "x#y", " z", "z ", "a\nb", 7])
def test_text_format_rejects_a_label_that_would_not_read_back(label):
    'the empty label is the one boolean(0) gives its point'
    with pytest.raises(DomainError):
        poset_to_text(from_covers(1, [], labels=(label,)))


def test_text_format_accepts_comments_and_labels():
    text = """poset v1
# a three-point vee
points 3
label 0 bottom
cover 0 1
cover 0 2  # two tops
"""
    p = poset_from_text(text)
    assert p.n == 3
    assert p.labels[0] == "bottom"
    assert p.leq(0, 2)


def test_text_format_parse_errors_name_the_line():
    with pytest.raises(ParseError):
        poset_from_text("not a header\npoints 1\n")
    with pytest.raises(ParseError) as info:
        poset_from_text("poset v1\npoints 2\ncover 0\n")
    assert "line 3" in str(info.value)
    with pytest.raises(ParseError):
        poset_from_text("poset v1\ncover 0 1\n")  # points line missing


@pytest.mark.parametrize("text, message", [
    ("poset v1\npoints 2\nlabel 0\n", "line 3: malformed label line"),
    ("poset v1\npoints 2\nlabel 2 x\n", "line 3: label index 2 out of range"),
    ("# a comment\n\n", "empty input, expected 'poset v1' header"),
])
def test_text_format_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        poset_from_text(text)
    assert str(info.value) == message


def test_text_format_rejects_a_points_token_int_cannot_read():
    'more digits than int() accepts is a malformed line, not a ValueError'
    text = "poset v1\npoints %s\n" % ("1" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(ParseError) as info:
        poset_from_text(text)
    assert str(info.value) == "line 2: malformed points line"


def test_text_format_checks_the_point_cap_before_building_labels():
    'a huge points line with a label is a capacity error in small memory; a later parse error still wins'
    import tracemalloc

    text = "poset v1\npoints 2000000\nlabel 0 a\n"
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            poset_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "point count 2000000 outside 0..128"
    assert peak < 1 << 20
    with pytest.raises(ParseError):
        poset_from_text(text + "bogus\n")


def test_text_format_rejects_a_duplicate_label():
    'a second label line for a point is an error, as a second points line is'
    with pytest.raises(ParseError) as info:
        poset_from_text("poset v1\npoints 2\nlabel 0 a\nlabel 1 c\nlabel 0 b\n")
    assert str(info.value) == "line 5: duplicate label for point 0"


def test_empty_poset_is_legal():
    p = antichain(0)
    assert p.n == 0
    assert p.carrier == 0
    assert poset_from_text(poset_to_text(p)).n == 0
