"""The ten exit criteria, one test per criterion.

Each test pins the stated values and budgets; a one-line pass/fail ledger
per criterion is printed by the hook in conftest.  Two deliberately strict
xfail tests document stated counts that contradict the tables they came
with; the consistent counterparts are asserted in the regular tests.
"""

import random
import time

import pytest

from downsets import (
    bmm5_gamma,
    bmm5_nu,
    bmm6_iso,
    bmm6_lemma2_reference,
    bmm6_mu,
    build_sigma_precomp,
    chain_product_count,
    classify_inner_type,
    count_downsets,
    count_via_decomposition,
    dedekind_standard,
    dedekind_via_theorem2,
    e_of,
    enumerate_downsets,
    lemma1_check,
    middle_counts,
    phi_forward,
    phi_inverse,
    representation_system,
    sigma_fast,
    sigma_reference,
)
from downsets import cli
from conftest import random_poset, random_submask
from frozen import (
    B7,
    B_VALUES,
    BM_COLUMN,
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


def test_c01_ladder():
    'b(0..6) and both derived columns, exactly, from supplied middle counts'
    bmm = middle_counts(6)
    t0 = time.perf_counter()
    ladders = [dedekind_via_theorem2(n, bmm) for n in range(7)]
    elapsed = time.perf_counter() - t0
    for n, ladder in enumerate(ladders):
        assert ladder.value == B_VALUES[n], n
    assert ladders[6].bm == BM_COLUMN
    assert ladders[6].bmm == BMM_COLUMN
    assert elapsed < 1.0, elapsed


def test_c02_standard_summation():
    t0 = time.perf_counter()
    run5 = dedekind_standard(5)
    run6 = dedekind_standard(6)
    elapsed = time.perf_counter() - t0
    assert (run5.value, run5.summands) == (7581, 210)
    assert (run6.value, run6.summands) == (7828354, 14196)
    assert elapsed < 5.0, elapsed


def test_c02_standard_stretch():
    t0 = time.perf_counter()
    run7 = dedekind_standard(7)
    elapsed = time.perf_counter() - t0
    assert run7.value == B7
    assert run7.summands == 28739571
    assert elapsed < 600.0, elapsed


def test_c03_nu_method():
    t0 = time.perf_counter()
    rep = bmm5_nu()
    elapsed = time.perf_counter() - t0
    assert tuple(rep.table) == NU_ROW
    assert sum(rep.table) == 1024
    assert rep.value == BMM5
    assert elapsed < 1.0, elapsed


def test_c04_gamma_method():
    t0 = time.perf_counter()
    rep = bmm5_gamma()
    elapsed = time.perf_counter() - t0
    assert tuple(rep.table["columns"]) == GAMMA_COLUMNS
    assert tuple(tuple(row) for row in rep.table["rows"]) == GAMMA_ROWS
    assert all(sum(row) == 16 for row in rep.table["rows"])
    assert rep.evaluations == 80
    assert rep.value == BMM5
    assert elapsed < 1.0, elapsed


def test_c05_mu_method():
    t0 = time.perf_counter()
    rep = bmm6_mu()
    elapsed = time.perf_counter() - t0
    grid = rep.table
    assert tuple(tuple(row) for row in grid) == MU_GRID
    assert sum(sum(row) for row in grid) == 1048576
    assert all(grid[i][j] == grid[j][i] for i in range(16) for j in range(16))
    assert rep.value == BMM6
    assert elapsed < 60.0, elapsed


def test_c06_reference_summation(split):
    t0 = time.perf_counter()
    rep = bmm6_lemma2_reference(split)
    elapsed = time.perf_counter() - t0
    assert rep.value == BMM6
    assert elapsed < 600.0, elapsed


def test_c07_class_collapsed_method(split):
    t0 = time.perf_counter()
    classes_all, records = representation_system(split.q23)
    report = bmm6_iso(split, records)
    elapsed = time.perf_counter() - t0
    assert len(records) == 34
    assert len(classes_all) == 91
    got = [
        (r["code"], r["iota"], r["delta"], r["t"], r["sigma"],
         r["downsets_below"], r["inner_sum"])
        for r in report.table
    ]
    assert got == list(CATALOGUE)
    assert report.value == BMM6
    assert report.evaluations == sum(
        1 << rec.delta for rec in records if rec.type_code != "0-000")
    assert report.evaluations == 272
    assert elapsed < 60.0, elapsed


@pytest.mark.xfail(
    strict=True,
    reason="the stated evaluation count 245 contradicts the catalogue itself: "
           "upper-bearing classes contribute sum(2**delta) = 1296 - 1024 = 272",
)
def test_c07_stated_evaluation_count(split, catalogue):
    _, records = catalogue
    assert bmm6_iso(split, records).evaluations == 245


def test_c08_structure_counts(split, q23_members):
    assert chain_product_count(2, split.q23) == PRODUCT_COUNT
    q23 = split.q23
    lows = q23.minimal_points()
    with_uppers = 0
    positive = 0
    positive_with_uppers = 0
    census = {}
    for m in q23_members:
        has_uppers = bool(m & ~lows)
        with_uppers += has_uppers
        if e_of(split, q23.to_parent_mask(m)) > 0:
            positive += 1
            positive_with_uppers += has_uppers
            kind = classify_inner_type(split, m)
            if kind != "other":
                census[kind] = census.get(kind, 0) + 1
    assert with_uppers == 5188
    assert positive == 491
    assert positive_with_uppers == 235
    assert census == {"1-300": 150, "2-410": 60, "3-330": 20, "4-060": 5}


@pytest.mark.xfail(
    strict=True,
    reason="491 counts every down-set with a positive fringe value; only 235 "
           "of the 5188 upper-bearing ones qualify",
)
def test_c08_stated_positive_fringe_population(split, q23_members):
    q23 = split.q23
    lows = q23.minimal_points()
    among_upper_bearing = sum(
        1 for m in q23_members
        if m & ~lows and e_of(split, q23.to_parent_mask(m)) > 0)
    assert among_upper_bearing == 491


def test_c09_oracle_equivalence(split, catalogue, q23_members):
    t0 = time.perf_counter()
    rng = random.Random(20260815)

    for trial in range(1000):
        p = random_poset(rng, 14, density=rng.uniform(0.05, 0.6))
        direct = count_downsets(p)
        pivot = random_submask(rng, p.carrier)
        assert count_via_decomposition(p, pivot) == direct
        members = enumerate_downsets(p)
        assert len(members) == direct
        if trial % 25 == 0:
            for d in rng.sample(members, min(10, len(members))):
                n_mask = d & pivot
                image = phi_forward(p, pivot, n_mask, d)
                assert phi_inverse(p, pivot, n_mask, image) == d

    for _ in range(500):
        q = random_poset(rng, 8, density=rng.uniform(0.1, 0.5))
        n_mask = q.down_closure(random_submask(rng, q.carrier))
        assert lemma1_check(rng.randint(1, 3), q, n_mask)

    _, records = catalogue
    for _ in range(200):
        rec = rng.choice(records)
        pre = build_sigma_precomp(split, rec.representative)
        a = random_submask(rng, rec.delta_mask)
        want = sigma_reference(split, rec.representative | a, q23_members)
        assert sigma_fast(split, a, pre) == want

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed


def test_c10_determinism(capsys):
    outputs = []
    for jobs in ("1", "4"):
        assert cli.main(["verify", "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for args in (["dedekind", "5", "--method", "nu"],
                 ["dedekind", "5", "--method", "gamma"],
                 ["dedekind", "6", "--method", "standard"],
                 ["dedekind", "4", "--method", "theorem2"]):
        runs = []
        for jobs in ("1", "3"):
            assert cli.main(args + ["--format", "csv", "--jobs", jobs]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
