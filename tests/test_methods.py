import random

import pytest

from downsets import (
    CapacityError,
    DomainError,
    NotADownSet,
    StructureError,
    bmm5_gamma,
    bmm5_iso,
    bmm5_nu,
    bmm6_iso,
    bmm6_lemma2_reference,
    bmm6_mu,
    boolean,
    build_qsplit,
    build_sigma_precomp,
    chain,
    chain_product_count,
    class_parameters,
    classify_inner_type,
    count_downsets,
    e_of,
    from_covers,
    enumerate_downsets,
    lemma1_check,
    middle_counts,
    product,
    sigma_fast,
    sigma_reference,
    sub_poset,
    t_of,
)
from downsets import methods
from downsets.methods import (
    _gamma_pivot, _gamma_residual_class, _levels, _mu_sweep, _plane, _tally, fringe_counts,
    gamma_residual_multiset,
)
from downsets.poset import _bits, _popcount
from conftest import random_poset, random_submask
from frozen import (
    BMM5,
    BMM6,
    BMM_COLUMN,
    CATALOGUE,
    GAMMA_COLUMNS,
    GAMMA_ROWS,
    MU_GRID,
    NU_ROW,
    PRODUCT_COUNT,
)


# -- the four-block split ----------------------------------------------------


def test_split_partitions_the_region(split):
    blocks = [split.m23, split.m23 << 32, split.e2, split.e4]
    assert [bin(b).count("1") for b in blocks] == [20, 20, 5, 5]
    union = 0
    for b in blocks:
        assert union & b == 0
        union |= b
    middle = sum(1 << w for w in range(64) if 2 <= bin(w).count("1") <= 4)
    assert union == middle
    assert split.q23.n == 20 and split.q23.parent_map == tuple(_bits(split.m23))
    assert len(split.q23_lowers) == 10


def test_split_hashes_by_identity(split):
    'a split holds dicts, yet it can key a cache; equality is identity'
    cache = {split: "cached"}
    assert cache[split] == "cached"
    assert hash(split) == hash(split)
    assert split != build_qsplit()


def test_flip_map_shape(split):
    # the top block: first digit 1, levels 3..4
    assert split.m23 << 32 == sum(1 << w for w in range(32, 64) if 3 <= bin(w).count("1") <= 4)
    assert all(w < 32 for w in _bits(split.m23))


def test_flip_map_carries_the_order(split):
    lat = split.lattice
    for x in _bits(split.m23):
        assert lat.leq(x, x | 32)
        for y in _bits(split.m23 << 32):
            strictly_below = lat.leq(x, y) and x != y
            assert strictly_below == lat.leq(x | 32, y)


def test_fringe_counters_at_the_extremes(split):
    assert t_of(split, 0) == 0
    assert t_of(split, split.m23) == 5
    assert e_of(split, 0) == 5
    assert e_of(split, split.m23) == 0
    with pytest.raises(DomainError):
        e_of(split, split.m23 << 32)
    with pytest.raises(DomainError):
        t_of(split, split.m23 << 32)


def test_fringe_counters_match_word_formulas(split, q23_members):
    # e2 holds the words 32 | 2^b, which lie under w | 32 iff bit b of w is
    # set; e4 holds the words 31 - 2^b, which lie over w iff bit b of w is clear
    q23 = split.q23
    assert len(q23_members) == 6212
    for local in q23_members:
        y = q23.to_parent_mask(local)
        union = 0
        inter = 31
        for w in _bits(y):
            union |= w
        for w in _bits(split.m23 & ~y):
            inter &= w
        assert e_of(split, y) == 5 - _popcount(union)
        assert t_of(split, y) == _popcount(inter)
    # the bulk values, from byte tables of e- and t-rows, agree with the closures
    parents = [q23.to_parent_mask(local) for local in q23_members]
    assert fringe_counts(split, q23_members) == ([e_of(split, y) for y in parents],
                                                 [t_of(split, y) for y in parents])


def test_fringe_counter_monotone(split):
    rng = random.Random(31)
    for _ in range(60):
        y = random_submask(rng, split.m23)
        bigger = y | random_submask(rng, split.m23)
        assert e_of(split, bigger) <= e_of(split, y)


@pytest.fixture(scope="module")
def t0(split):
    'T0[Y] = 2^e(Y) by e_of, over the subsets Y of the bottom-level points, bit b for q23_lowers bit b'
    words = [split.q23.parent_map[i] for i in split.q23_lowers]
    return [1 << e_of(split, sum(1 << w for b, w in enumerate(words) if y >> b & 1))
            for y in range(1024)]


def test_subset_sum_tables(split, t0):
    t1 = split.t1
    assert len(t0) == len(t1) == 1024
    assert t0[0] == t1[0] == 32
    assert t1[1023] == sum(t0) == 1450
    assert all(b >= a for a, b in zip(t0, t1))


def test_subset_sum_table_sums_every_subset(split, t0):
    'T1[Y] is T0 summed over every Z inside Y, walked one submask at a time (3^10 terms)'
    t1 = split.t1
    for y in range(1024):
        total = t0[0]
        z = y
        while z:
            total += t0[z]
            z = (z - 1) & y
        assert t1[y] == total


# -- 5-atom routes -----------------------------------------------------------


def test_nu_sweep(split):
    rep = bmm5_nu()
    assert rep.value == BMM5
    assert tuple(rep.table) == NU_ROW
    assert rep.evaluations == 1024
    assert sum(c << i for i, c in enumerate(rep.table)) == rep.value


def test_gamma_sweep():
    rep = bmm5_gamma()
    assert rep.value == BMM5
    assert rep.evaluations == 80
    assert tuple(rep.table["columns"]) == GAMMA_COLUMNS
    assert tuple(tuple(row) for row in rep.table["rows"]) == GAMMA_ROWS


def test_gamma_residual_class_depends_only_on_size():
    _, m2, m3 = _gamma_pivot()
    bits = []
    m = m2
    while m:
        bits.append(m & -m)
        m &= m - 1
    by_size = {}
    for pick in range(16):
        n2 = sum(b for i, b in enumerate(bits) if (pick >> i) & 1)
        by_size.setdefault(bin(pick).count("1"), []).append(gamma_residual_multiset(n2))
    for variants in by_size.values():
        assert all(v == variants[0] for v in variants)
    with pytest.raises(DomainError):
        gamma_residual_multiset(m3)


def test_gamma_residual_class_rejects_a_larger_component():
    'an empty pivot leaves the whole connected region, which is no union of 2-chains and points'
    mid, _, _ = _gamma_pivot()
    with pytest.raises(StructureError):
        _gamma_residual_class(mid, 0, 0)


def test_iso_route_on_five_atoms(catalogue):
    _, records = catalogue
    rep = bmm5_iso(records)
    assert rep.value == BMM5
    assert rep.evaluations == 34


# -- 6-atom routes -----------------------------------------------------------


def test_mu_sweep():
    rep = bmm6_mu()
    assert rep.value == BMM6
    assert rep.evaluations == 1 << 20
    grid = rep.table
    assert tuple(tuple(row) for row in grid) == MU_GRID
    for i in range(16):
        for j in range(16):
            assert grid[i][j] == grid[j][i]


@pytest.mark.parametrize("fixed", [0, 1, 4, 8])
def test_mu_sweep_is_slice_invariant(fixed):
    'fixing the top level-3 points slices the sweep; the slices add up to the one table'
    table = _mu_sweep(sub_poset(boolean(6), "middle"), fixed)
    assert tuple(tuple(row) for row in table) == MU_GRID
    assert sum(table[i][j] << (i + j) for i in range(16) for j in range(16)) == BMM6


def test_mu_sweep_stays_small():
    'the sliced sweep holds 2**16-bit ints, not the 2**20-bit ones of one slice (4.5 MB)'
    import tracemalloc

    bmm6_mu()  # the lattice and the imports are not the sweep's
    tracemalloc.start()
    try:
        bmm6_mu()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("k", range(1, 9))
def test_bit_sliced_helpers_by_brute_force(k):
    'planes, ripple-carry counters and their level masks against a loop over every x < 2**k'
    width = 1 << k
    full = (1 << width) - 1
    for b in range(k):
        plane = _plane(k, b)
        assert plane >> width == 0
        assert all((plane >> x & 1) == (x >> b & 1) for x in range(width))
    rng = random.Random(1700 + k)
    for _ in range(20):
        inputs = [rng.getrandbits(width) for _ in range(rng.randrange(0, 24))]
        counter = [0] * len(inputs).bit_length()
        for one_bit in inputs:
            _tally(counter, one_bit)
        masks = list(_levels(counter, full))
        assert len(masks) == 1 << len(counter)
        for x in range(width):
            held = sum(one_bit >> x & 1 for one_bit in inputs)
            assert [v for v, mask in enumerate(masks) if mask >> x & 1] == [held]


def test_reference_summation(split):
    rep = bmm6_lemma2_reference(split)
    assert rep.value == BMM6
    assert rep.evaluations == PRODUCT_COUNT
    assert rep.table["inner_terms"] == PRODUCT_COUNT


def test_inner_terms_equal_chain_product_count(split):
    assert chain_product_count(2, split.q23) == PRODUCT_COUNT
    assert chain_product_count(3, split.q23) == count_downsets(product(chain(3), split.q23)) == 537887125


def test_inner_type_census(split, q23_members):
    q23 = split.q23
    lows = q23.minimal_points()
    with_uppers = 0
    positive_e = 0
    census = {}
    for m in q23_members:
        if m & ~lows:
            with_uppers += 1
        if e_of(split, q23.to_parent_mask(m)) > 0:
            positive_e += 1
        kind = classify_inner_type(split, m)
        if kind != "other":
            census[kind] = census.get(kind, 0) + 1
    assert len(q23_members) == 6212
    assert with_uppers == 5188
    assert positive_e == 491
    assert census == {"1-300": 150, "2-410": 60, "3-330": 20, "4-060": 5}
    assert sum(census.values()) == 235


def test_iso_route_on_six_atoms(split, catalogue):
    _, records = catalogue
    rep = bmm6_iso(split, records)
    assert rep.value == BMM6
    assert rep.evaluations == 272
    got = [
        (r["code"], r["iota"], r["delta"], r["t"], r["sigma"],
         r["downsets_below"], r["inner_sum"])
        for r in rep.table
    ]
    assert got == list(CATALOGUE)


def test_reference_term_count_identity(iso_table):
    # each class representative, evaluated once per free-lower subset by the
    # defining sum, touches 3^delta * (down-sets below R) inner terms
    assert sum(3**r["delta"] * r["downsets_below"] for r in iso_table) == 208099


# -- closed-form sigma -------------------------------------------------------


def test_upper_fringe_matches_e_of_on_every_upper_set(split):
    """brute force over the 1023 nonempty sets S of upper points, through
    e_of.  A single upper u has e = 2, and groups[u] splits the outside
    lowers z with e(S + z) = 1, two of them in one group iff e(S + z + z')
    = 1.  A larger S with e > 0 maps in qualifying to the OR of the outside
    lowers z with e(S + z) > 0, and every other S is absent."""
    q23 = split.q23
    groups, qualifying = split.upper_fringe
    lows = q23.minimal_points()
    ups = list(_bits(q23.carrier & ~lows))

    def e(mask):
        return e_of(split, q23.to_parent_mask(mask))

    assert sorted(groups) == ups
    qualified = 0
    for m in range(1, 1 << len(ups)):
        s = sum(1 << ups[k] for k in _bits(m))
        outside = [1 << z for z in _bits(lows & ~q23.down_closure(s))]
        if _popcount(m) == 1:
            assert e(s) == 2
            one = [z for z in outside if e(s | z) == 1]
            g1, g2 = groups[s.bit_length() - 1]
            assert g1 & g2 == 0 and g1 | g2 == sum(one)
            for z in one:
                for y in one:
                    assert (bool(g1 & z) == bool(g1 & y)) == (e(s | z | y) == 1)
        elif e(s):
            qualified += 1
            assert qualifying[s] == sum(z for z in outside if e(s | z))
        else:
            assert s not in qualifying
    assert qualified == len(qualifying) == 55


def test_precomp_shapes(split, catalogue, iso_table):
    _, records = catalogue
    by_code = {r.type_code: r for r in records}
    empty = build_sigma_precomp(split, by_code["0-000"].representative)
    assert empty.uppers == () and empty.down_count == 1
    assert empty.pair_g == () and empty.n34 == 0
    one = build_sigma_precomp(split, by_code["1-300"].representative)
    assert len(one.uppers) == 1
    (u,) = one.uppers
    g1, g2 = split.upper_fringe[0][u]
    assert bin(g1).count("1") == bin(g2).count("1") == 3
    assert g1 & g2 == 0
    assert (g1 | g2) & ~one.free == 0
    assert one.down_count == 9
    for rec, row in zip(records, iso_table):
        pre = build_sigma_precomp(split, rec.representative)
        assert len(pre.uppers) == int(rec.type_code.split("-")[0])
        assert pre.down_count == row["downsets_below"]


def test_core_counts_share_the_split_memo(catalogue):
    'the 34 cores count through one memo on the split, which ends as one shared count_downsets memo would'
    fresh = build_qsplit()
    memo = {}
    for rec in catalogue[1]:
        pre = build_sigma_precomp(fresh, rec.representative)
        assert pre.down_count == count_downsets(fresh.q23, rec.representative, memo)
    assert fresh.q23_memo == memo
    assert len(memo) == 352


def test_precomp_rejects_non_downsets(split):
    lone_upper = split.q23.maximal_points() & -split.q23.maximal_points()
    assert not split.q23.is_downset(lone_upper)
    with pytest.raises(NotADownSet):
        build_sigma_precomp(split, lone_upper)


def test_inner_type_rejects_non_downsets(split):
    'a lone upper point is not a down-set, though its closure has the code 1-300'
    lone_upper = split.q23.maximal_points() & -split.q23.maximal_points()
    assert classify_inner_type(split, split.q23.down_closure(lone_upper)) == "1-300"
    with pytest.raises(NotADownSet):
        classify_inner_type(split, lone_upper)


def test_sigma_fast_matches_defining_sum(split, catalogue, q23_members):
    _, records = catalogue
    rng = random.Random(99)
    for rec in rng.sample(list(records), 12):
        pre = build_sigma_precomp(split, rec.representative)
        for _ in range(4):
            a = random_submask(rng, rec.delta_mask)
            want = sigma_reference(split, rec.representative | a, q23_members)
            assert sigma_fast(split, a, pre) == want


def test_sigma_fast_rejects_non_free_points(split, catalogue):
    _, records = catalogue
    rec = next(r for r in records if r.type_code == "1-300")
    pre = build_sigma_precomp(split, rec.representative)
    covered_bit = pre.covered & -pre.covered
    with pytest.raises(DomainError):
        sigma_fast(split, covered_bit, pre)


def test_class_parameters_are_label_independent(split, catalogue, iso_table):
    'any member of a class reproduces the row of its representative'
    _, records = catalogue
    rng = random.Random(7)
    q23 = split.q23
    for rec, row in rng.sample(list(zip(records, iso_table)), 8):
        member = rng.choice(rec.members)
        pre = build_sigma_precomp(split, member)
        assert pre.down_count == row["downsets_below"]
        assert t_of(split, q23.to_parent_mask(member)) == row["t"]
        assert sigma_fast(split, 0, pre) == row["sigma"]


def test_class_parameters_match_the_catalogue_and_reject_isolated_points(split, catalogue, iso_table):
    _, records = catalogue
    for rec, row in zip(records, iso_table):
        got = class_parameters(split, rec.representative)
        assert got == {key: row[key] for key in got}
    rec = next(r for r in records if r.type_code == "1-300")
    with pytest.raises(StructureError):
        class_parameters(split, rec.representative | (rec.delta_mask & -rec.delta_mask))


def test_the_split_builds_the_subset_sum_table_once(catalogue, monkeypatch):
    'a split, its iso route and every class row make one containment_sums call, the one for t1'
    original = methods.containment_sums
    calls = []
    monkeypatch.setattr(methods, "containment_sums", lambda *args: calls.append(args) or original(*args))
    fresh = build_qsplit()
    _, records = catalogue
    assert bmm6_iso(fresh, records).value == BMM6
    for rec in records:
        class_parameters(fresh, rec.representative)
    assert len(calls) == 1


def test_lemma2_builds_no_subset_sum_table(monkeypatch):
    'the subset-sum table is built on first read, and lemma2 never reads it'
    calls = []
    monkeypatch.setattr(methods, "containment_sums", lambda *args: calls.append(args))
    assert bmm6_lemma2_reference(build_qsplit()).value == BMM6
    assert calls == []


# -- residual law and suppliers ----------------------------------------------


def test_residual_law_on_the_diamond():
    q = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for n_mask in enumerate_downsets(q):
        assert lemma1_check(2, q, n_mask)
        assert lemma1_check(3, q, n_mask)
    with pytest.raises(NotADownSet):
        lemma1_check(2, q, 0b1000)
    with pytest.raises(DomainError):
        lemma1_check(0, q, 0b0001)


def test_residual_law_refuses_a_long_chain_before_it_allocates():
    import tracemalloc

    q = from_covers(2, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            lemma1_check(2_000_000, q, 0b01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_residual_law_on_random_posets():
    rng = random.Random(41)
    for _ in range(40):
        q = random_poset(rng, 8)
        n_mask = q.down_closure(random_submask(rng, q.carrier))
        assert lemma1_check(rng.randint(1, 4), q, n_mask)


def test_middle_count_supplier():
    assert middle_counts(6) == BMM_COLUMN
    assert middle_counts(4) == {3: BMM_COLUMN[3], 4: BMM_COLUMN[4]}
    with pytest.raises(DomainError):
        middle_counts(7)


def test_middle_counts_refuse_past_their_reach_before_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(methods, "count_downsets", refuse)
    monkeypatch.setattr(methods, "bmm6_mu", refuse)
    for n_max in (8, 100000):  # 7 too, until a middle(7) supplier exists
        with pytest.raises(DomainError):
            middle_counts(n_max)
    assert middle_counts(2) == middle_counts(-1) == {}
