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
          sigma by its defining inner sum (the slow reference).
  iso     same summation collapsed onto the 34 isomorphism classes of
          isolated-free down-sets, with sigma evaluated by closed formula
          from precomputed structural data and a subset-sum table.
"""

import time
from dataclasses import dataclass, replace

from .boolean import boolean, sub_poset
from .engine import (
    containment_blocks, coordinate_automorphisms, count_downsets, decompose, enumerate_downsets,
)
from .errors import DomainError, NotADownSet, ShapeError, StructureError
from .isoclasses import representation_system, type_code
from .poset import Poset, chain, product, _bits, _by_bytes, _byte_tables, _or_table, _popcount, _relabel, _subsets


@dataclass
class MethodReport:
    'outcome of one counting method'
    method: str
    value: int
    table: object
    evaluations: int
    wall_time: float


# -- the four-block split of the 6-atom middle region -----------------------


@dataclass(frozen=True)
class QSplit:
    """The 50-point middle region on 6 atoms split by level and first digit.

    Every mask is a point set of lattice, the subset lattice B6, whose
    point index is the 6-digit binary word, first digit worth 32:

    m23: first digit 0, levels 2..3 (the bottom block, 20 points)
    m34: first digit 1, levels 3..4 (the top block, 20 points)
    e2:  first digit 1, level 2 (5 points);  e4: first digit 0, level 4

    Flipping the first digit is a shift by 32: m23 << 32 == m34, and for x
    in the bottom and y in the top block, x < y iff x | 32 <= y.  q23 is the
    bottom block as a poset, its parent indices being words.  The closure
    in e_of is the OR of e_rows over the points of a q23-local mask.
    """
    lattice: Poset
    m23: int
    m34: int
    e2: int
    e4: int
    q23: Poset
    q23_lowers: dict  # q23-local index of each bottom-level point -> its bit among the 10
    e_rows: tuple     # e2 & down(w | 32) per q23 point w
    upper_fringe: tuple  # the class-independent part of build_sigma_precomp, see _upper_fringe


def build_qsplit():
    ctx = boolean(6)
    low = (1 << 32) - 1  # the words with first digit 0
    lv = ctx.levels
    m23 = (lv[2] | lv[3]) & low
    q23 = ctx.lattice.induced(m23)
    e2 = lv[2] & ~low
    e_rows = tuple(ctx.lattice.down[w | 32] & e2 for w in q23.parent_map)
    return QSplit(
        lattice=ctx.lattice,
        m23=m23,
        m34=(lv[3] | lv[4]) & ~low,
        e2=e2,
        e4=lv[4] & low,
        q23=q23,
        q23_lowers={i: b for b, i in enumerate(_bits(q23.minimal_points()))},
        e_rows=e_rows,
        upper_fringe=_upper_fringe(q23, e2, e_rows),
    )


def s_of(split, n_mask):
    'fringe points of e2 not under the top-block part of N'
    if n_mask & ~(split.m23 | split.m34):
        raise DomainError("N must live on the two blocks")
    return _popcount(split.e2 & ~split.lattice.down_closure(n_mask & split.m34))


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
    """(e, t): e_of and t_of of the parent of each q23-local mask, as ORs
    of e-rows over the mask and of t-rows e4 & up(w) over its complement."""
    e_tables = _byte_tables(split.e_rows)
    t_tables = _byte_tables([split.lattice.up[w] & split.e4 for w in split.q23.parent_map])
    full = split.q23.carrier
    e = [_popcount(split.e2 & ~_by_bytes(m, e_tables)) for m in members]
    t = [_popcount(split.e4 & ~_by_bytes(full & ~m, t_tables)) for m in members]
    return e, t


def build_T0_T1(split):
    """1024-entry tables over subsets Y of the bottom-level points:
    T0[Y] = 2^e(Y), T1[Y] = sum of T0 over subsets of Y (zeta transform)."""
    rows = [split.e_rows[i] for i in split.q23_lowers]  # e-row of each index bit
    t0 = [1 << _popcount(split.e2 & ~covered) for covered in _or_table(rows)]
    t1 = list(t0)
    for d in range(len(rows)):
        bit = 1 << d
        for m in range(len(t1)):
            if m & bit:
                t1[m] += t1[m ^ bit]
    return t0, t1


# -- the 5-atom middle region ------------------------------------------------


def bmm5_nu():
    """Trace decomposition over the 10 upper points: one term per subset N
    of them, the residual being the antichain of lower points not under N.
    Returns the tally vector nu over residual sizes; the count is
    sum nu_i * 2^i.  The 1024 subsets are tallied as 34 orbits under the
    coordinate automorphisms, each weighted by its size."""
    t0 = time.perf_counter()
    mid = sub_poset(boolean(5), "middle")
    lowers = mid.minimal_points()
    nu = [0] * (_popcount(lowers) + 1)
    for term in decompose(mid, mid.carrier & ~lowers, coordinate_automorphisms(mid)):
        nu[_popcount(term.mask)] += term.weight
    value = sum(nu[i] << i for i in range(len(nu)))
    return MethodReport(
        method="nu", value=value, table=nu,
        evaluations=sum(nu), wall_time=time.perf_counter() - t0,
    )


def _gamma_pivot():
    'the 8-point antichain pivot: level-2 words with the first digit set, level-3 words without'
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
            raise ShapeError("residual has a %d-point component, expected 2-chains and isolated points" % size)
    return c, a


def bmm5_gamma():
    """Digit-split sweep: pivot on the 8-point antichain from _gamma_pivot.
    Residual classes depend on the level-2 part N2 only through its size, so
    one representative N2 per size j is evaluated against all 16 level-3
    parts: 80 residuals.  Cell (j, (c, a)) counts residuals that are c
    2-chains plus a isolated points; the count is
    sum_j C(4,j) sum_{c,a} gamma_j(c,a) * 3^c * 2^a."""
    import math

    t0 = time.perf_counter()
    mid, m2, m3 = _gamma_pivot()
    m_mask = m2 | m3
    bits2 = list(_bits(m2))
    grid = {}
    evaluations = 0
    for j in range(5):
        n2 = sum(1 << b for b in bits2[:j])
        for n3 in _subsets(m3):
            c, a = _gamma_residual_class(mid, m_mask, n2 | n3)
            evaluations += 1
            grid.setdefault((c, a), [0] * 5)[j] += 1
    value = 0
    for (c, a), counts in grid.items():
        weight = 3**c * 2**a
        value += weight * sum(math.comb(4, j) * counts[j] for j in range(5))
    columns = sorted(grid)
    table = {"columns": columns, "rows": [[grid[col][j] for col in columns] for j in range(5)]}
    return MethodReport(
        method="gamma", value=value, table=table,
        evaluations=evaluations, wall_time=time.perf_counter() - t0,
    )


def gamma_residual_multiset(n2_mask):
    'sorted residual classes over all 16 level-3 parts, for a fixed level-2 part'
    mid, m2, m3 = _gamma_pivot()
    if n2_mask & ~m2:
        raise DomainError("N2 must be a subset of the level-2 pivot half")
    return sorted(_gamma_residual_class(mid, m2 | m3, n2_mask | n3) for n3 in _subsets(m3))


def bmm5_iso(records):
    'count from the class catalogue: sum of iota * 2^delta over the 34 classes'
    t0 = time.perf_counter()
    value = sum(rec.iota << rec.delta for rec in records)
    table = [(rec.type_code, rec.iota, rec.delta) for rec in records]
    return MethodReport(
        method="iso5", value=value, table=table,
        evaluations=len(records), wall_time=time.perf_counter() - t0,
    )


# -- the 6-atom middle region ------------------------------------------------


def bmm6_mu():
    """Mid-level sweep: one term per subset N of the 20 level-3 points.  The
    residual is an antichain made of the level-2 points not under N and the
    level-4 points not over the complement of N; mu[i][j] tallies subsets by
    the two sizes, and the count is sum mu[i][j] * 2^(i+j).

    The 2**20 covered sets are filled by subset doubling, one half-width OR
    per level-3 point, and tallied as uint8 cell indices, so the sweep holds
    about 8 MB of arrays."""
    import numpy as np

    t0 = time.perf_counter()
    mid = sub_poset(boolean(6), "middle")
    l2 = [i for i in range(mid.n) if _popcount(mid.parent_map[i]) == 2]
    l3 = [i for i in range(mid.n) if _popcount(mid.parent_map[i]) == 3]
    l4 = [i for i in range(mid.n) if _popcount(mid.parent_map[i]) == 4]
    pos2 = {p: b for b, p in enumerate(l2)}
    pos4 = {p: b for b, p in enumerate(l4)}
    # a level-3 point has only level-2 points strictly below it, level-4 above
    dn2 = [_relabel(mid.down[u] & ~(1 << u), pos2) for u in l3]
    up4 = [_relabel(mid.up[u] & ~(1 << u), pos4) for u in l3]
    size = 1 << 20
    covered2 = np.zeros(size, dtype=np.uint16)
    covered4 = np.zeros(size, dtype=np.uint16)
    # subset doubling: the subsets with highest point b are those below 2**b plus b
    for b in range(20):
        covered2[1 << b : 2 << b] = covered2[: 1 << b] | np.uint16(dn2[b])
        covered4[1 << b : 2 << b] = covered4[: 1 << b] | np.uint16(up4[b])
    # the complement of mask x is (size-1) - x, so index reversal flips N;
    # both sizes are at most 15, so the cell index 16 * i + j fits in uint8
    i_arr = 15 - np.bitwise_count(covered2)
    j_arr = 15 - np.bitwise_count(covered4[::-1])
    cells = i_arr * np.uint8(16) + j_arr
    # bincount widens its input to intp, so it gets 64 slices of 16K cells
    grid = sum(np.bincount(part, minlength=256) for part in cells.reshape(64, -1)).reshape(16, 16)
    table = [[int(x) for x in row] for row in grid]
    value = sum(table[i][j] << (i + j) for i in range(16) for j in range(16))
    return MethodReport(
        method="mu", value=value, table=table,
        evaluations=size, wall_time=time.perf_counter() - t0,
    )


def sigma_reference(split, n_local, members=None):
    'defining inner sum: 2^e over every down-set of q23 contained in the given one'
    if members is None:
        members = enumerate_downsets(split.q23).members
    total = 0
    for m in members:
        if m & ~n_local == 0:
            total += 1 << e_of(split, split.q23.to_parent_mask(m))
    return total


def bmm6_lemma2_reference(split):
    """Reference summation over all 6212 down-sets N of the bottom block:
    sum of 2^t(N) * sigma(N) with sigma by its defining inner sum.  The
    evaluation counter is the number of inner terms (contained pairs)."""
    import numpy as np

    t0 = time.perf_counter()
    fam = enumerate_downsets(split.q23)
    e_vec, t_vec = fringe_counts(split, fam.members)
    weights = np.asarray([1 << e for e in e_vec], dtype=np.int64)
    sigma = np.zeros(len(fam), dtype=np.int64)
    pairs = 0
    for start, inside in containment_blocks(fam.members):
        sigma[start : start + len(inside)] = inside @ weights
        pairs += int(inside.sum())
    value = sum(int(s) << t for s, t in zip(sigma.tolist(), t_vec))
    return MethodReport(
        method="lemma2", value=value, table={"inner_terms": pairs},
        evaluations=pairs, wall_time=time.perf_counter() - t0,
    )


def classify_inner_type(split, d_local):
    """Type code of the isolated-free core of a down-set of the bottom
    block, when it matters for the fringe count: "other" when the down-set
    has no upper points or its e-value is zero."""
    uppers = d_local & ~split.q23.minimal_points()
    if not uppers or e_of(split, split.q23.to_parent_mask(d_local)) == 0:
        return "other"
    return type_code(split.q23, split.q23.down_closure(uppers))


# -- closed-form sigma -------------------------------------------------------


@dataclass
class SigmaPrecomp:
    """Per-class structural data for the closed-form sigma.

    For each upper point u of the core, g1[u] and g2[u] are the two disjoint
    3-point groups of outside lower points that each leave one of u's two
    free fringe digits alive.  pair_g lists, per qualifying upper pair, the
    single outside lower point compatible with the pair's free digit.  n34
    counts qualifying upper triples and quadruples, each contributing one.
    All such data is derived empirically from e-evaluations and validated;
    a violated shape raises StructureError.
    """
    rep: int
    uppers: tuple
    covered: int      # lower points of the core
    free: int         # the other lower points
    down_count: int
    g1: dict
    g2: dict
    pair_g: tuple
    n34: int
    t1: list


def _upper_fringe(q23, e2, e_rows):
    """(groups, qualifying) over all upper points of the bottom block q23:
    groups[u] is (g1[u], g2[u]) of every SigmaPrecomp, and qualifying maps
    each upper set of two to four points with positive e (a q23 mask) to its
    compatible lower point, for a pair, or to 0.  A point's e-row covers the
    e-rows below it, so e of any closure is an upper-subset OR of e-rows.
    """
    lowers_all = q23.minimal_points()
    ups = list(_bits(q23.carrier & ~lowers_all))
    masks = _or_table([1 << u for u in ups])
    e_ors = _or_table([e_rows[u] for u in ups])
    belows = _or_table([q23.down[u] & lowers_all for u in ups])

    def e(rows_or):
        return _popcount(e2 & ~rows_or)

    groups = {}
    qualifying = {}
    for m in range(1, len(masks)):
        size, e_or, below = _popcount(m), e_ors[m], belows[m]
        if size == 1:
            if e(e_or) != 2:
                raise StructureError("single-upper core has e = %d, expected 2" % e(e_or))
            # an outside lower with e = 1 leaves one of u's two free digits
            # alive; lowers leaving the same digit cover the same e-points
            found = {}
            for z in _bits(lowers_all & ~below):
                covered = e_or | e_rows[z]
                if e(covered) == 1:
                    found[covered] = found.get(covered, 0) | 1 << z
                elif e(covered):
                    raise StructureError("outside lower keeps e at %d" % e(covered))
            if sorted(map(_popcount, found.values())) != [3, 3]:
                raise StructureError("expected two disjoint 3-point groups per upper point")
            groups[masks[m].bit_length() - 1] = tuple(found.values())
        elif e(e_or) == 0:
            continue
        else:
            # a qualifying pair covers 5 lowers and admits one compatible
            # lower, a triple or quadruple covers 6 and admits none
            cands = [1 << z for z in _bits(lowers_all & ~below) if e(e_or | e_rows[z])]
            if size > 4 or (_popcount(below), len(cands)) != ((5, 1) if size == 2 else (6, 0)):
                raise StructureError("qualifying upper %d-set covers %d lowers and admits %d compatible ones"
                                     % (size, _popcount(below), len(cands)))
            qualifying[masks[m]] = sum(cands)
    return groups, qualifying


def build_sigma_precomp(split, rep, t1):
    'the SigmaPrecomp of a core; t1 is the subset-sum table of build_T0_T1'
    q23 = split.q23
    if not q23.is_downset(rep):
        raise NotADownSet("representative is not a down-set of the bottom block")
    lowers_all = q23.minimal_points()
    uppers = rep & ~lowers_all
    if q23.down_closure(uppers) != rep:
        raise StructureError("representative has isolated lower points")
    covered = rep & lowers_all
    groups, qualifying = split.upper_fringe
    ups = tuple(_bits(uppers))
    inside = [g for vs, g in qualifying.items() if not vs & ~uppers]
    return SigmaPrecomp(
        rep=rep,
        uppers=ups,
        covered=covered,
        free=lowers_all & ~covered,
        down_count=count_downsets(q23, rep),
        g1={u: groups[u][0] for u in ups},
        g2={u: groups[u][1] for u in ups},
        pair_g=tuple(g for g in inside if g),
        n34=inside.count(0),
        t1=t1,
    )


def sigma_fast(split, rep, a_mask, precomp):
    """sigma(A + R) by closed formula: the subset-sum table covers the
    upper-free inner terms, the containment count covers every term's +1,
    and the per-upper groups, qualifying pairs, triples and quadruples
    supply the only inner terms with positive e and upper points."""
    if rep != precomp.rep:
        raise DomainError("precomputation belongs to another representative")
    if a_mask & ~precomp.free:
        raise DomainError("A must consist of free lower points")
    ap = precomp.covered | a_mask
    total = precomp.t1[_relabel(ap, split.q23_lowers)]
    total += (1 << _popcount(a_mask)) * precomp.down_count - (1 << _popcount(ap))
    for u in precomp.uppers:
        total += 1 + (1 << _popcount(precomp.g1[u] & ap)) + (1 << _popcount(precomp.g2[u] & ap))
    for gbit in precomp.pair_g:
        total += 2 if gbit & ap else 1
    total += precomp.n34
    return total


def class_parameters(split, core, t1):
    """The t, sigma, containment count and inner-sum entries of the catalogue
    row of an isolated-free down-set of the bottom block; t1 is the
    subset-sum table of build_T0_T1."""
    pre = build_sigma_precomp(split, core, t1)
    return {
        "t_val": t_of(split, split.q23.to_parent_mask(core)),
        "sigma_val": sigma_fast(split, core, 0, pre),
        "downclosure_count": pre.down_count,
        "inner_sum": sum(sigma_fast(split, core, a_mask, pre) for a_mask in _subsets(pre.free)),
    }


def table7(split, records):
    """The catalogue records with t, sigma, containment count and inner sum
    filled in by class_parameters, in catalogue order."""
    t1 = build_T0_T1(split)[1]
    return [replace(rec, **class_parameters(split, rec.representative, t1)) for rec in records]


def bmm6_iso(split, records=None):
    """Class-collapsed summation: sum over the catalogue of
    iota(R) * 2^t(R) * sum_{A subset of the free lowers} sigma(A + R).
    Upper-free terms come straight out of the subset-sum table; the
    evaluation counter counts closed-form sigma calls on upper-bearing
    down-sets only."""
    t0 = time.perf_counter()
    if records is None:
        _, records = representation_system(split.q23)
    records = table7(split, records)
    value = sum(rec.iota * (rec.inner_sum << rec.t_val) for rec in records)
    # a nonempty core has upper points
    evaluations = sum(1 << rec.delta for rec in records if rec.representative)
    rows = [
        {
            "code": rec.type_code,
            "iota": rec.iota,
            "delta": rec.delta,
            "t": rec.t_val,
            "sigma": rec.sigma_val,
            "downsets_below": rec.downclosure_count,
            "inner_sum": rec.inner_sum,
        }
        for rec in records
    ]
    return MethodReport(
        method="iso", value=value, table=rows,
        evaluations=evaluations, wall_time=time.perf_counter() - t0,
    )


# -- small checks and suppliers ----------------------------------------------


def lemma1_check(n, q, n_mask):
    """Residual law of the bottom-copy decomposition of chain(n) x q: for a
    down-set N of the bottom copy, removing up(copy - N) | down(N) must
    leave chain(n-1) x (q restricted to N), point for point."""
    if n < 1:
        raise DomainError("chain length must be at least 1, got %d" % n)
    if not q.is_downset(n_mask):
        raise NotADownSet("N must be a down-set of the bottom copy")
    p = product(chain(n), q)
    rest = p.carrier & ~p.updown((1 << q.n) - 1, n_mask)
    sub = q.induced(n_mask)
    ref = product(chain(n - 1), sub)
    # point k * q.n + j of p, j in N, should be point (k - 1, j's index in sub) of ref
    pos = {j: b for b, j in enumerate(sub.parent_map)}
    send = {k * q.n + j: (k - 1) * sub.n + pos[j] for k in range(1, n) for j in sub.parent_map}
    if rest != sum(1 << x for x in send):
        return False
    return all(_relabel(p.up[x] & rest, send) == ref.up[y] for x, y in send.items())


def middle_counts(n_max):
    'middle-region down-set counts for 3..n_max, by the cheapest route each'
    out = {}
    for k in range(3, n_max + 1):
        if k <= 5:
            out[k] = count_downsets(sub_poset(boolean(k), "middle"))
        elif k == 6:
            out[k] = bmm6_mu().value
        else:
            raise DomainError("no middle-region supplier for %d atoms" % k)
    return out
