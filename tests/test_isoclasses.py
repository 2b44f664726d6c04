import random

import pytest

from downsets import (
    CapacityError,
    IsoClassRecord,
    StructureError,
    Poset,
    antichain,
    are_isomorphic,
    boolean,
    canonical_form,
    chain,
    direct_sum,
    enumerate_downsets,
    from_covers,
    product,
    representation_system,
    sub_poset,
    type_code,
)
from downsets import isoclasses
from downsets.isoclasses import _code_key, _has_crown, _type_key, coordinate_automorphisms
from downsets.poset import _popcount
from conftest import random_poset
from frozen import CATALOGUE


def shuffled_copy(rng, p):
    'the same poset under a random relabeling'
    perm = list(range(p.n))
    rng.shuffle(perm)
    covers = [(perm[a], perm[b]) for a, b in p.covers()]
    return from_covers(p.n, covers)


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(303)
    for _ in range(120):
        p = random_poset(rng, 9, density=rng.choice([0.15, 0.3, 0.5]))
        q = shuffled_copy(rng, p)
        assert canonical_form(p) == canonical_form(q)
        assert are_isomorphic(p, q)


def test_canonical_form_separates_non_isomorphic():
    seen = {}
    shapes = [
        chain(4),
        antichain(4),
        direct_sum(chain(2), chain(2)),
        direct_sum(chain(3), antichain(1)),
        from_covers(4, [(0, 1), (0, 2), (0, 3)]),
        from_covers(4, [(0, 3), (1, 3), (2, 3)]),
        from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
        boolean(2).lattice,
    ]
    for p in shapes:
        cert = canonical_form(p)
        assert cert not in seen, "collision with %s" % seen.get(cert)
        seen[cert] = p


def test_posets_of_different_sizes_are_not_isomorphic():
    assert not are_isomorphic(chain(2), chain(3))


def test_highly_symmetric_posets_are_fast_enough():
    # the automorphism-heavy worst cases the search must handle
    assert canonical_form(antichain(20)) == canonical_form(antichain(20))
    mid = sub_poset(boolean(5), "middle")
    assert are_isomorphic(mid, mid)
    b4 = boolean(4).lattice
    assert are_isomorphic(b4, b4.dual())


def test_canonical_form_capacity():
    with pytest.raises(CapacityError):
        canonical_form(antichain(25))


def test_canonical_form_distinguishes_dual_pairs():
    vee = from_covers(3, [(0, 1), (0, 2)])
    wedge = from_covers(3, [(0, 2), (1, 2)])
    assert not are_isomorphic(vee, wedge)


def test_catalogue_matches_published_rows(catalogue, iso_table):
    _, records = catalogue
    assert len(records) == 34
    got = [
        (r["code"], r["iota"], r["delta"], r["t"], r["sigma"],
         r["downsets_below"], r["inner_sum"])
        for r in iso_table
    ]
    assert got == list(CATALOGUE)


def test_catalogue_class_sizes(catalogue):
    classes_all, records = catalogue
    assert sum(r.iota for r in records) == 1024
    assert len(classes_all) == 91
    assert sum(r.iota << r.delta for r in records) == 6212


def test_members_partition_the_cores(split, catalogue):
    _, records = catalogue
    seen = set()
    for rec in records:
        assert list(rec.members) == sorted(rec.members)
        seen.update(rec.members)
    assert len(seen) == 1024


def test_type_codes_on_hand_picked_members(split, catalogue):
    q23 = split.q23
    _, records = catalogue
    rng = random.Random(17)
    for rec in records:
        member = rng.choice(rec.members)
        assert type_code(q23, member) == rec.type_code


def test_type_code_rejects_isolated_lower_points(split, catalogue):
    _, records = catalogue
    rec = next(r for r in records if r.type_code == "1-300")
    with pytest.raises(StructureError):
        type_code(split.q23, rec.representative | (rec.delta_mask & -rec.delta_mask))


def test_type_code_rejects_a_lower_point_under_four_uppers():
    'the code has counts c1..c3 only, so a core with a lower under 4 uppers has none'
    star = from_covers(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(StructureError):
        type_code(star, star.carrier)
    with pytest.raises(StructureError):
        representation_system(star)


# lowers 0..15 and uppers 16..19, as upper -> the lowers it sits over
TWO_DIGIT_COVERS = {
    16: (4, 5, 10, 11),
    17: (10, 11, 13, 14),
    18: tuple(l for l in range(16) if l not in (10, 12)),
    19: (5, 8, 10, 12, 15),
}


def test_catalogue_orders_on_the_numbers_when_a_count_has_two_digits():
    'c1 = 10 sorts after c1 = 9: 3-970 before 3-1051, both with delta 0'
    p = from_covers(20, [(l, u) for u, lows in TWO_DIGIT_COVERS.items() for l in lows])
    lowers = sum(1 << l for l in range(16))
    _, records = representation_system(p)
    keys = []
    for rec in records:
        rep = rec.representative
        uppers = [u for u in TWO_DIGIT_COVERS if rep >> u & 1]
        under = [sum(l in TWO_DIGIT_COVERS[u] for u in uppers) for l in range(16) if rep >> l & 1]
        keys.append((len(uppers), _popcount(lowers & ~rep), under.count(1), under.count(2), under.count(3)))
    assert keys == sorted(keys)
    assert sorted(rec.type_code for rec in records) == sorted([
        "0-000", "1-14.0.0", "1-500", "1-400", "2-13.3.0", "2-12.3.0", "2-710", "2-520", "2-420",
        "3-970", "3-10.5.1", "3-951", "3-621", "4-853",
    ])


def test_distinct_type_keys_give_distinct_codes(monkeypatch):
    'c1 and c2 of one digit keep the plain code; a larger one writes the counts apart'
    keys = [(u, c1, c2, c3, -1) for u in (0, 1, 10, 11) for c1 in range(21) for c2 in range(21)
            for c3 in range(21)]
    keys += [(u, c1, c2, c3, s) for u in (4, 6) for c1 in range(12) for c2 in range(12)
             for c3 in range(12) for s in (0, 1)]
    keys += [(1, 14, 0, 0, -1), (1, 1, 40, 0, -1), (11, 4, 0, 0, -1), (1, 1, 4, 100, -1)]
    # the key stands in for the core mask, so type_code formats it as given
    monkeypatch.setattr(isoclasses, "_type_key", lambda q23, key: key)
    keys = set(keys)
    assert len({type_code(None, key) for key in keys}) == len(keys)
    for key, code in [((1, 14, 0, 0, -1), "1-14.0.0"), ((1, 1, 40, 0, -1), "1-1.40.0"),
                      ((10, 0, 0, 10, -1), "10-0010"), ((4, 4, 4, 0, 1), "4-440-1")]:
        assert type_code(None, key) == code


def test_codes_read_back_as_their_keys(monkeypatch):
    'the catalogue orders its records on the key read back from each code'
    keys = [(u, c1, c2, c3, s) for u in (0, 4, 11) for c1 in range(13) for c2 in range(13)
            for c3 in (0, 1, 10, 100) for s in (-1, 0, 1)]
    monkeypatch.setattr(isoclasses, "_type_key", lambda q23, key: key)
    assert [_code_key(type_code(None, key)) for key in keys] == keys


def test_catalogue_computes_each_type_key_once(split, monkeypatch):
    calls = []

    def counted(q23, core_mask):
        calls.append(core_mask)
        return _type_key(q23, core_mask)

    monkeypatch.setattr(isoclasses, "_type_key", counted)
    _, records = representation_system(split.q23)
    assert len(calls) == 34
    assert sorted(calls) == sorted(rec.representative for rec in records)


def test_suffix_codes_mark_distinct_classes(split, catalogue):
    'the two -0/-1 splits exist because the bare codes collide'
    q23 = split.q23
    _, records = catalogue
    by_code = {}
    for rec in records:
        bare = "-".join(rec.type_code.split("-")[:2])
        by_code.setdefault(bare, []).append(rec)
    assert len(by_code["4-440"]) == 2
    assert len(by_code["6-442"]) == 2
    a, b = (q23.induced(r.representative) for r in by_code["4-440"])
    assert not are_isomorphic(a, b)


# lowers 0..3 and uppers 4..7, as (lower, upper index among the uppers)
CROWN_EDGES = {
    "8-crown": [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)],
    "two K2,2": [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
    "an upper of degree 3": [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 1), (3, 2)],
}


@pytest.mark.parametrize("shape, expected", [("8-crown", True), ("two K2,2", False), ("an upper of degree 3", False)])
def test_has_crown_needs_one_eight_cycle(shape, expected):
    p = from_covers(8, [(low, 4 + up) for low, up in CROWN_EDGES[shape]])
    assert _has_crown(p, 0xF0, 0x0F) is expected


def test_product_poset_isomorphic_to_relabeled_product():
    rng = random.Random(8)
    p = product(chain(2), antichain(3))
    q = shuffled_copy(rng, p)
    assert are_isomorphic(p, q)


# -- the orbit-built catalogue against one certificate per core ----------------


def catalogue_by_certificates(q23):
    'the catalogue records with one canonical form per isolated-free down-set'
    lowers = q23.minimal_points()
    by_cert = {}
    for mask in enumerate_downsets(q23):
        if q23.down_closure(mask & ~lowers) != mask:
            continue
        cert = canonical_form(q23.induced(mask))
        by_cert.setdefault(cert, []).append(mask)
    records = []
    for members in by_cert.values():
        rep = min(members)
        records.append(IsoClassRecord(
            type_code=type_code(q23, rep), delta_mask=lowers & ~q23.down_closure(rep),
            members=tuple(sorted(members)),
        ))

    def order(rec):
        u, c1, c2, c3, s = _type_key(q23, rec.representative)
        return u, rec.delta, c1, c2, c3, s

    return sorted(records, key=order)


def middle5():
    return sub_poset(boolean(5), "middle")


@pytest.mark.parametrize("which", ["q23", "middle5"])
def test_orbit_catalogue_equals_certificate_catalogue(split, which):
    q23 = split.q23 if which == "q23" else middle5()
    _, records = representation_system(q23)
    assert len(records) == 34
    assert records == catalogue_by_certificates(q23)


def group_order(perms, n):
    'size of the permutation group generated by perms'
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in perms:
            h = tuple(s[g[i]] for i in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


@pytest.mark.parametrize("which", ["q23", "middle5"])
def test_coordinate_swaps_are_order_automorphisms(split, which):
    p = split.q23 if which == "q23" else middle5()
    perms = coordinate_automorphisms(p)
    for perm in perms:
        assert sorted(perm) == list(range(p.n))
        for i in range(p.n):
            for j in range(p.n):
                assert p.leq(i, j) == p.leq(perm[i], perm[j])
    assert group_order(perms, p.n) == 120


def test_unlabelled_copy_takes_the_trivial_group(split):
    bare = Poset(split.q23.up)
    assert coordinate_automorphisms(bare) == []
    _, records = representation_system(bare)
    _, labelled = representation_system(split.q23)
    assert records == labelled


def test_swaps_that_break_the_order_are_dropped(split):
    'labels moved to the wrong points: the label swaps are no longer automorphisms'
    labels = list(split.q23.labels)
    random.Random(5).shuffle(labels)
    assert coordinate_automorphisms(Poset(split.q23.up, labels=labels)) == []


# -- the degree-profile gate ----------------------------------------------------


def degree_profile(p, mask):
    'sorted (up-degree, down-degree) pairs of the points of the induced poset'
    core = p.induced(mask)
    return tuple(sorted((_popcount(core.up[i]), _popcount(core.down[i])) for i in range(core.n)))


@pytest.mark.parametrize("which, calls", [("q23", 4), ("middle5", 4), ("unlabelled", 1022)])
def test_only_orbits_that_share_a_degree_profile_are_certified(split, monkeypatch, which, calls):
    'q23 and middle(5) certify the 4-440 and 6-442 pairs; an unlabelled copy every core but two'
    q23 = {"q23": split.q23, "middle5": middle5(), "unlabelled": Poset(split.q23.up)}[which]
    seen = []

    def counted(p):
        seen.append(p)
        return canonical_form(p)

    monkeypatch.setattr(isoclasses, "canonical_form", counted)
    _, records = representation_system(q23)
    assert len(records) == 34
    assert len(seen) == calls


@pytest.mark.parametrize("which", ["q23", "middle5"])
def test_only_the_suffixed_pairs_share_a_degree_profile(split, which):
    q23 = split.q23 if which == "q23" else middle5()
    _, records = representation_system(q23)
    by_profile = {}
    for rec in records:
        profiles = {degree_profile(q23, m) for m in rec.members}
        assert len(profiles) == 1
        by_profile.setdefault(profiles.pop(), []).append(rec.type_code)
    shared = sorted(codes for codes in by_profile.values() if len(codes) > 1)
    assert shared == [["4-440-0", "4-440-1"], ["6-442-0", "6-442-1"]]
