import math
import random

import pytest

from downsets import (
    CapacityError,
    DomainError,
    NotADownSet,
    TraceMismatch,
    antichain,
    boolean,
    chain,
    chain_product_count,
    containment_counts,
    count_downsets,
    count_via_decomposition,
    decompose,
    direct_sum,
    enumerate_downsets,
    from_covers,
    phi_forward,
    phi_inverse,
    product,
)
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


def test_decomposition_terms_carry_residual_backmaps():
    p = chain(4)
    terms = list(decompose(p, 0b0011))
    assert len(terms) == 3
    for term in terms:
        assert term.residual.parent_map is not None


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


def test_phi_inverse_rejects_masks_outside_the_carrier():
    p = chain(3)
    with pytest.raises(DomainError):
        phi_inverse(p, 0, 0, -1)
    with pytest.raises(DomainError):
        phi_inverse(p, 0, 0, 0b1000)


def test_containment_counts_small():
    fam = enumerate_downsets(boolean(2).lattice)
    below, above = containment_counts(fam)
    assert sum(below) == 20
    assert sum(above) == 20
    assert below[0] == 1  # the empty set contains itself only
    assert above[0] == 6


def test_containment_counts_match_a_double_loop():
    'B3, and a family of more than 256 members wider than 63 bits'
    b3 = enumerate_downsets(boolean(3).lattice)
    wide = enumerate_downsets(direct_sum(chain(7), chain(59)))
    assert len(wide) > 256 and max(wide.members) >= 1 << 63
    for fam in (b3, wide):
        members = fam.members
        below = [sum(1 for e in members if e & ~d == 0) for d in members]
        above = [sum(1 for d in members if e & ~d == 0) for e in members]
        assert containment_counts(fam) == (below, above)


def test_chain_product_count_past_63_bits():
    # chain(n) x (C7 + C59) splits into two grids, each a binomial count
    q = direct_sum(chain(7), chain(59))
    for n in (2, 3):
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
    for _ in range(150):
        p = random_poset(rng, 9, density=rng.choice([0.1, 0.3, 0.6]))
        total = count_downsets(p)
        assert total == len(enumerate_downsets(p))
        m_mask = random_submask(rng, p.carrier)
        assert total == count_via_decomposition(p, m_mask)
