"""The concrete middle-region computations on 5 and 6 atoms.

Five independent routes to the same two constants (6212 down-sets of the
20-point middle region on 5 atoms, 7741776 on 6 atoms of the 50-point one):

  nu      trace decomposition over the 10 upper points of the 5-atom
          middle region; each residual is an antichain of lower points,
          tally by its size.
  gamma   sweep an 8-point antichain pivot chosen by the designated first
          digit; residuals are unions of 2-chains and isolated points.
  mu      sweep the 2^20 subsets of the mid level of the 6-atom middle
          region; residuals are antichains split into a lower and an upper
          part, tally by the two sizes.
  lemma2  split the 6-atom middle region into two 20-point blocks joined by
          a flip of the first digit plus two 5-point fringes, and sum
          2^t(N) * sigma(N) over the 6212 down-sets N of the bottom block,
          sigma by its defining inner sum.
  iso     same summation collapsed onto the 34 isomorphism classes of
          isolated-free down-sets, with sigma evaluated by closed formula
          from precomputed structural data and a subset-sum table.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field

from .boolean import boolean, sub_poset
from .engine import (
    _containment_pairs, _zeta, containment_sums, coordinate_automorphisms, count_downsets, decompose,
)
from .errors import DomainError, NotADownSet, StructureError
from .poset import (
    Poset, antichain, chain, product, _bits, _by_bytes, _byte_tables, _or_table, _popcount, _relabel, _subsets,
)


# outcome of one counting method
MethodReport = namedtuple("MethodReport", ("value", "table", "evaluations"))


# -- the four-block split of the 6-atom middle region -----------------------


@dataclass(frozen=True, eq=False)
class QSplit:
    """The 50-point middle region on 6 atoms split by level and first digit.

    Every mask is a point set of lattice, the subset lattice B6, whose
    point index is the 6-digit binary word, first digit worth 32:

    m23: first digit 0, levels 2..3 (the bottom block, 20 points)
    e2:  first digit 1, level 2 (5 points);  e4: first digit 0, level 4

    Flipping the first digit is a shift by 32, so the top block (first
    digit 1, levels 3..4) is m23 << 32, and for x in the bottom and y in
    the top block, x < y iff x | 32 <= y.  q23 is the bottom block as a
    poset, its parent indices being words.
    A split compares and hashes by identity (eq=False): the field-wise
    hash a frozen dataclass would generate fails on the dict fields.
    It holds the closed-form sigma's class-independent data, which only the
    iso route reads, so each is built on first read: upper_fringe and t1,
    the subset-sum table over the subsets Y of the 10 bottom-level points,
    bit b of Y standing for the point whose q23_lowers bit is b: t1[Y] sums
    2^e(Z) over every Z inside Y.  q23_memo is the count_downsets memo that
    every core's count shares.
    """
    lattice: Poset
    m23: int
    e2: int
    e4: int
    q23: Poset
    q23_lowers: dict  # q23-local index of each bottom-level point -> its bit among the 10
    q23_memo: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def upper_fringe(self):
        'per-upper groups and qualifying upper sets, see _upper_fringe'
        return _upper_fringe(self.q23)

    @functools.cached_property
    def t1(self):
        # 2^e of each subset of the lowers, e read off their words as in fringe_counts; the
        # zeta transform over the down-sets of a 10-point antichain, all 1024 subsets, sums it
        words = [self.q23.parent_map[i] for i in self.q23_lowers]
        t0 = [1 << (5 - _popcount(covered)) for covered in _or_table(words)]
        return containment_sums(antichain(len(words)), t0)


def build_qsplit():
    ctx = boolean(6)
    low = (1 << 32) - 1  # the words with first digit 0
    lv = ctx.levels
    m23 = (lv[2] | lv[3]) & low
    q23 = ctx.lattice.induced(m23)
    return QSplit(
        lattice=ctx.lattice,
        m23=m23,
        e2=lv[2] & ~low,
        e4=lv[4] & low,
        q23=q23,
        q23_lowers={i: b for b, i in enumerate(_bits(q23.minimal_points()))},
    )


def t_of(split, n_mask):
    'fringe points of e4 not over the bottom-block complement of N (N inside m23)'
    if n_mask & ~split.m23:
        raise DomainError("N must live on the bottom block")
    return _popcount(split.e4 & ~split.lattice.up_closure(split.m23 & ~n_mask))


def e_of(split, y_mask):
    'fringe points of e2 not under the flipped image of Y (Y inside m23)'
    if y_mask & ~split.m23:
        raise DomainError("Y must live on the bottom block")
    return _popcount(split.e2 & ~split.lattice.down_closure(y_mask << 32))


def fringe_counts(split, members):
    """(e, t): e_of and t_of of the parent of each q23-local mask, read off
    the words.  e2 and e4 hold one point per low digit d; e2's is under a
    flipped word w | 32 iff w holds d, and e4's is over w iff w lacks d.  So
    e is 5 less the digits of the OR of the mask's words, and t is 5 less
    the digits of the OR of 31 ^ w over the words of its complement."""
    words = split.q23.parent_map
    e_tables = _byte_tables(words)
    t_tables = _byte_tables([31 ^ w for w in words])
    full = split.q23.carrier
    e = [5 - _popcount(_by_bytes(m, e_tables)) for m in members]
    t = [5 - _popcount(_by_bytes(full & ~m, t_tables)) for m in members]
    return e, t


# -- the 5-atom middle region ------------------------------------------------


def bmm5_nu():
    """Trace decomposition over the 10 upper points: one term per subset N
    of them, the residual being the antichain of lower points not under N.
    Returns the tally vector nu over residual sizes; the count is
    sum nu_i * 2^i.  The 1024 subsets are tallied as 34 orbits under the
    coordinate automorphisms, each weighted by its size."""
    mid = sub_poset(boolean(5), "middle")
    lowers = mid.minimal_points()
    nu = [0] * (_popcount(lowers) + 1)
    for _, mask, weight in decompose(mid, mid.carrier & ~lowers, coordinate_automorphisms(mid)):
        nu[_popcount(mask)] += weight
    value = sum(nu[i] << i for i in range(len(nu)))
    return MethodReport(value=value, table=nu, evaluations=sum(nu))


@functools.cache
def _gamma_pivot():
    'the 8-point antichain pivot: level-2 words with the first digit set, level-3 words without; built once'
    mid = sub_poset(boolean(5), "middle")
    msb = 1 << 4
    m2 = m3 = 0
    for i, word in enumerate(mid.parent_map):
        if _popcount(word) == 2 and word & msb:
            m2 |= 1 << i
        elif _popcount(word) == 3 and not word & msb:
            m3 |= 1 << i
    return mid, m2, m3


def _gamma_residual_class(mid, m_mask, n_mask):
    'residual shape as (number of 2-chains, number of isolated points)'
    c = a = 0
    for comp in mid.components(mid.carrier & ~mid.updown(m_mask, n_mask)):
        size = _popcount(comp)
        if size == 1:
            a += 1
        elif size == 2:
            c += 1
        else:
            raise StructureError("residual has a %d-point component, expected 2-chains and isolated points" % size)
    return c, a


def bmm5_gamma():
    """Digit-split sweep: pivot on the 8-point antichain from _gamma_pivot.
    Residual classes depend on the level-2 part N2 only through its size, so
    the route tallies gamma_residual_multiset(N2) for one representative N2
    per size j, each over all 16 level-3 parts: 80 residuals.  Cell
    (j, (c, a)) counts residuals that are c 2-chains plus a isolated points;
    the count is sum_j C(4,j) sum_{c,a} gamma_j(c,a) * 3^c * 2^a."""
    import math

    bits2 = list(_bits(_gamma_pivot()[1]))
    grid = {}
    for j in range(5):
        for c, a in gamma_residual_multiset(sum(1 << b for b in bits2[:j])):
            grid.setdefault((c, a), [0] * 5)[j] += 1
    value = sum(math.comb(4, j) * n * 3**c * 2**a for (c, a), row in grid.items() for j, n in enumerate(row))
    columns = sorted(grid)
    table = {"columns": columns, "rows": [[grid[col][j] for col in columns] for j in range(5)]}
    return MethodReport(value=value, table=table, evaluations=sum(map(sum, grid.values())))


def gamma_residual_multiset(n2_mask):
    'sorted residual classes over all 16 level-3 parts, for a fixed level-2 part'
    mid, m2, m3 = _gamma_pivot()
    if n2_mask & ~m2:
        raise DomainError("N2 must be a subset of the level-2 pivot half")
    return sorted(_gamma_residual_class(mid, m2 | m3, n2_mask | n3) for n3 in _subsets(m3))


def bmm5_iso(records):
    'count from the class catalogue: sum of iota * 2^delta over the 34 classes; the table is the records'
    value = sum(rec.iota << rec.delta for rec in records)
    return MethodReport(value=value, table=records, evaluations=len(records))


# -- the 6-atom middle region ------------------------------------------------


def _plane(k, b):
    'the 2**k-bit int whose bit x is bit b of x, for every x < 2**k; b < k'
    if b < 3:
        chunk = bytes([(0xAA, 0xCC, 0xF0)[b]])
    else:
        chunk = bytes(1 << b - 3) + b"\xff" * (1 << b - 3)
    reps = max(1, (1 << k) // (8 * len(chunk)))
    return int.from_bytes(chunk * reps, "little") & ((1 << (1 << k)) - 1)


def _tally(counter, plane):
    """add a one-bit plane into a bit-sliced counter, ones bit first, by
    ripple carry; the counter must be wide enough for every plane added"""
    for i, c in enumerate(counter):
        counter[i], plane = c ^ plane, c & plane


def _levels(counter, full):
    'yield, for v = 0, 1, ..., the mask of the bits of full where the counter holds v'
    negs = [full ^ c for c in counter]
    for v in range(1 << len(counter)):
        mask = full
        for i, c in enumerate(counter):
            mask &= c if v >> i & 1 else negs[i]
        yield mask


_MU_FIXED = 4  # the sweep runs in 2**_MU_FIXED slices of 2**(20 - _MU_FIXED)-bit ints


def _mu_sweep(mid, fixed):
    """the 16 x 16 mu table of mid, summed cell by cell over 2**fixed slices.

    A slice fixes the top fixed level-3 points of mid to the set bits of top:
    the subset with local part x among the other free points is bit x of a
    2**free-bit int, and full has every bit.  So the planes of the fixed
    points are full or 0, and only they change from slice to slice.  lowers
    counts the level-2 points not under the subset, uppers the level-4 points
    whose level-3 points below are all in it; both are bit-sliced counters of
    4 planes, and each one-bit plane is added as soon as it is made.  A
    slice's empty rows and columns are skipped."""
    level = [_popcount(word) for word in mid.parent_map]
    l3 = [u for u in range(mid.n) if level[u] == 3]
    lv3 = sum(1 << u for u in l3)
    above = [tuple(_bits(mid.up[p] & lv3)) for p in range(mid.n) if level[p] == 2]
    below = [tuple(_bits(mid.down[p] & lv3)) for p in range(mid.n) if level[p] == 4]
    free = len(l3) - fixed
    full = (1 << (1 << free)) - 1
    planes = {u: _plane(free, b) for b, u in enumerate(l3[:free])}
    table = [[0] * 16 for _ in range(16)]
    for top in range(1 << fixed):
        for b, u in enumerate(l3[free:]):
            planes[u] = full * (top >> b & 1)
        lowers, uppers = [0] * 4, [0] * 4
        for us in above:
            covered = 0
            for u in us:
                covered |= planes[u]
            _tally(lowers, full ^ covered)
        for us in below:
            held = full
            for u in us:
                held &= planes[u]
            _tally(uppers, held)
        cols = [(j, col) for j, col in enumerate(_levels(uppers, full)) if col]
        for cells, row in zip(table, _levels(lowers, full)):
            if row:
                for j, col in cols:
                    cells[j] += (row & col).bit_count()
    return table


def bmm6_mu():
    """Mid-level sweep: one term per subset N of the 20 level-3 points.  The
    residual is an antichain made of the level-2 points not under N and the
    level-4 points not over the complement of N; mu[i][j] tallies subsets by
    the two sizes, and the count is sum mu[i][j] * 2^(i+j).

    The sweep is bit-parallel over Python ints: each of the two sizes (at
    most 15) is a bit-sliced counter from _mu_sweep, and mu[i][j] is the
    bit count of (lower size == i) & (upper size == j).  It runs in 16
    slices, one per subset of the top 4 level-3 points, each over 2^16-bit
    ints, and adds the slices' tables."""
    table = _mu_sweep(sub_poset(boolean(6), "middle"), _MU_FIXED)
    value = sum(table[i][j] << (i + j) for i in range(16) for j in range(16))
    return MethodReport(value=value, table=table, evaluations=1 << 20)


def sigma_reference(split, n_local, members):
    'defining inner sum: 2^e over every down-set of q23 in members that lies inside n_local'
    total = 0
    for m in members:
        if m & ~n_local == 0:
            total += 1 << e_of(split, split.q23.to_parent_mask(m))
    return total


def bmm6_lemma2_reference(split):
    """Reference summation over all 6212 down-sets N of the bottom block:
    sum of 2^t(N) * sigma(N) with sigma by its defining inner sum.  Two zeta
    transforms over one set of contained pairs give sigma, from the weights
    2^e, and the number of inner terms (contained pairs), from ones, which
    is the evaluation counter."""
    members, index = _containment_pairs(split.q23)
    e_vec, t_vec = fringe_counts(split, members)
    sigma = _zeta(index, [1 << e for e in e_vec])
    pairs = sum(_zeta(index, [1] * len(members)))
    value = sum(s << t for s, t in zip(sigma, t_vec))
    return MethodReport(value=value, table={"inner_terms": pairs}, evaluations=pairs)


def classify_inner_type(split, d_local):
    """Type code of the isolated-free core of a down-set of the bottom
    block, when it matters for the fringe count: "other" when the down-set
    has no upper points or its e-value is zero."""
    if not split.q23.is_downset(d_local):
        raise NotADownSet("the set is not a down-set of the bottom block")
    uppers = d_local & ~split.q23.minimal_points()
    if not uppers or e_of(split, split.q23.to_parent_mask(d_local)) == 0:
        return "other"
    from .isoclasses import type_code

    return type_code(split.q23, split.q23.down_closure(uppers))


# -- closed-form sigma -------------------------------------------------------


class SigmaPrecomp(namedtuple("SigmaPrecomp", ("uppers", "covered", "free", "down_count", "pair_g", "n34"))):
    """Per-class structural data for the closed-form sigma.

    uppers are the upper points of the core, covered its lower points and
    free the other lower points; down_count counts the down-sets below the
    core.  pair_g lists, per qualifying upper pair of the core, the single
    outside lower point compatible with the pair's free digit.  n34 counts
    qualifying upper triples and quadruples, each contributing one.  The
    qualifying sets, and the per-upper groups that sigma_fast reads, are the
    split's upper_fringe, read off the binary words by _upper_fringe;
    build_sigma_precomp checks only that the core is an isolated-free
    down-set.
    """
    __slots__ = ()


def _upper_fringe(q23):
    """(groups, qualifying) over all upper points of the bottom block q23,
    read off the words: a q23 point is a word of 2 or 3 of the 5 low digits,
    and e of a set is the number of digits that none of its words holds.

    An upper u leaves two digits d free; groups[u] is its two disjoint
    3-point groups of outside lowers that each leave one of those digits
    alive, per free d the three lowers {i, d} with i in u.  A set of two to
    four uppers has positive e exactly when its words lie inside one
    4-digit word f, so qualifying maps each subset of f's four 3-subsets
    with two or more of them (a q23 mask) to its compatible lower: for a
    pair u, v the lower u ^ v, the only one of f's six lowers outside the
    pair's closure, and 0 for a triple or quadruple, which covers all six.
    """
    local = {w: i for i, w in enumerate(q23.parent_map)}
    groups = {}
    for w, i in local.items():
        if _popcount(w) == 3:
            groups[i] = tuple(sum(1 << local[1 << b | 1 << d] for b in _bits(w))
                              for d in range(5) if not w >> d & 1)
    qualifying = {}
    for f in range(32):
        if _popcount(f) == 4:
            digits = [1 << d for d in _bits(f)]
            # entry m is the uppers f ^ d, and the OR of the digits d, over the bits of m
            uppers = _or_table([1 << local[f ^ d] for d in digits])
            for m, dropped in enumerate(_or_table(digits)):
                if _popcount(m) > 1:
                    qualifying[uppers[m]] = 1 << local[dropped] if _popcount(m) == 2 else 0
    return groups, qualifying


def build_sigma_precomp(split, rep):
    'the SigmaPrecomp of a core, an isolated-free down-set of split.q23'
    q23 = split.q23
    if not q23.is_downset(rep):
        raise NotADownSet("representative is not a down-set of the bottom block")
    lowers_all = q23.minimal_points()
    uppers = rep & ~lowers_all
    if q23.down_closure(uppers) != rep:
        raise StructureError("representative has isolated lower points")
    covered = rep & lowers_all
    inside = [g for vs, g in split.upper_fringe[1].items() if not vs & ~uppers]
    return SigmaPrecomp(
        uppers=tuple(_bits(uppers)),
        covered=covered,
        free=lowers_all & ~covered,
        down_count=count_downsets(q23, rep, split.q23_memo),
        pair_g=tuple(g for g in inside if g),
        n34=inside.count(0),
    )


def sigma_fast(split, a_mask, precomp):
    """sigma(A + R) by closed formula, R the core of precomp: the split's
    subset-sum table covers the upper-free inner terms, the containment
    count covers every term's +1, and the per-upper groups, qualifying
    pairs, triples and quadruples supply the only inner terms with positive
    e and upper points."""
    if a_mask & ~precomp.free:
        raise DomainError("A must consist of free lower points")
    ap = precomp.covered | a_mask
    total = split.t1[_relabel(ap, split.q23_lowers)]
    total += (1 << _popcount(a_mask)) * precomp.down_count - (1 << _popcount(ap))
    groups = split.upper_fringe[0]
    for u in precomp.uppers:
        g1, g2 = groups[u]
        total += 1 + (1 << _popcount(g1 & ap)) + (1 << _popcount(g2 & ap))
    for gbit in precomp.pair_g:
        total += 2 if gbit & ap else 1
    total += precomp.n34
    return total


def class_parameters(split, core):
    """The t, sigma, down-sets-below and inner-sum cells of the table row of
    an isolated-free down-set of the bottom block, under their printed keys
    and in printed order."""
    pre = build_sigma_precomp(split, core)
    return {
        "t": t_of(split, split.q23.to_parent_mask(core)),
        "sigma": sigma_fast(split, 0, pre),
        "downsets_below": pre.down_count,
        "inner_sum": sum(sigma_fast(split, a_mask, pre) for a_mask in _subsets(pre.free)),
    }


def table7(split, records):
    """The iso table: one row per catalogue record, in catalogue order, with
    its code, iota and delta followed by the class_parameters cells."""
    return [
        {"code": rec.type_code, "iota": rec.iota, "delta": rec.delta,
         **class_parameters(split, rec.representative)}
        for rec in records
    ]


def bmm6_iso(split, records):
    """Class-collapsed summation: sum over the catalogue records of
    split.q23, as representation_system returns them, of
    iota(R) * 2^t(R) * sum_{A subset of the free lowers} sigma(A + R).
    Upper-free terms come straight out of the subset-sum table; the
    evaluation counter counts closed-form sigma calls on upper-bearing
    down-sets only.  The table is the table7 rows."""
    rows = table7(split, records)
    value = sum(row["iota"] * (row["inner_sum"] << row["t"]) for row in rows)
    # a nonempty core has upper points
    evaluations = sum(1 << rec.delta for rec in records if rec.representative)
    return MethodReport(value=value, table=rows, evaluations=evaluations)


# -- small checks and suppliers ----------------------------------------------


def lemma1_check(n, q, n_mask):
    """Residual law of the bottom-copy decomposition of chain(n) x q: for a
    down-set N of the bottom copy, removing up(copy - N) | down(N) must
    leave the copies 1..n-1 of N, inducing chain(n-1) x (q restricted to N)."""
    if n < 1:
        raise DomainError("chain length must be at least 1, got %d" % n)
    if not q.is_downset(n_mask):
        raise NotADownSet("N must be a down-set of the bottom copy")
    p = product(chain(n), q)
    rest = p.carrier & ~p.updown((1 << q.n) - 1, n_mask)
    # (k, j) -> (k - 1, j's index in N) keeps index order, as induced() does
    return (rest == sum(n_mask << k * q.n for k in range(1, n))
            and p.induced(rest) == product(chain(n - 1), q.induced(n_mask)))


def middle_counts(n_max):
    """middle-region down-set counts for 3..n_max, by the cheapest route
    each; empty below 3, and DomainError past 6 before anything is counted"""
    if n_max > 6:
        raise DomainError("no middle-region supplier for %d atoms" % n_max)
    return {k: count_downsets(sub_poset(boolean(k), "middle")) if k <= 5 else bmm6_mu().value
            for k in range(3, n_max + 1)}
