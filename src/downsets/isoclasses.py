"""Poset isomorphism for small posets, and the class catalogue of the
down-sets of the 20-point middle region on 5 atoms.

Canonical forms: per connected component, an ordered partition of the points
starts from (up-degree, down-degree) colors and is refined to equitability,
each point keyed by its cell and the cells of its strict up- and
down-neighbours; the search then repeatedly singles out one point of the
first non-singleton cell and re-refines, so branching stays close to the
automorphism count.  Among all discrete partitions reached this way, the
lexicographically least packed relation matrix is the certificate.  The
certificate of a poset is the sorted tuple of its component certificates, so
equal certificates mean isomorphic posets.

The catalogue does not certify every down-set.  Points of a region of the
subset lattice carry their binary words as labels, and swapping two
coordinates of every word is often an order automorphism.  Automorphisms
preserve the isomorphism type, so each orbit of the group they generate lies
inside one class, and one canonical form per orbit that shares its point
count with another orbit decides which orbits merge.
"""

from dataclasses import dataclass
from itertools import combinations

from .engine import coordinate_automorphisms, orbits
from .errors import CapacityError, StructureError
from .poset import _bits, _or_table, _popcount, _relabel

CANON_MAX_POINTS = 24


# -- canonical forms -------------------------------------------------------


def _equitable(up_nb, dn_nb, cells):
    """Refine an ordered partition (list of local bitmasks) until every cell
    sees every other cell uniformly.  A point's splitting key is its cell
    plus the sorted cells of its strict up- and down-neighbours, so the
    result is relabel-invariant."""
    k = len(up_nb)
    while True:
        cell_of = [0] * k
        for ci, cell in enumerate(cells):
            for v in _bits(cell):
                cell_of[v] = ci
        buckets = {}
        for v in range(k):
            key = (
                cell_of[v],
                tuple(sorted(cell_of[w] for w in up_nb[v])),
                tuple(sorted(cell_of[w] for w in dn_nb[v])),
            )
            buckets[key] = buckets.get(key, 0) | 1 << v
        new = [buckets[key] for key in sorted(buckets)]
        if len(new) == len(cells):
            return cells
        cells = new


def _component_certificate(p, mask):
    points = list(_bits(mask))
    k = len(points)
    pos = {q: idx for idx, q in enumerate(points)}
    # strict up and down rows in local indexing, and the same as index lists
    up_loc = [_relabel(p.up[a] & mask & ~(1 << a), pos) for a in points]
    dn_loc = [_relabel(p.down[a] & mask & ~(1 << a), pos) for a in points]
    up_nb = [list(_bits(row)) for row in up_loc]
    dn_nb = [list(_bits(row)) for row in dn_loc]

    # refining the one-cell partition first splits it by (up-degree, down-degree)
    cells = _equitable(up_nb, dn_nb, [(1 << k) - 1])

    # true twins (same strict up- and down-sets) are interchangeable, so one
    # member per twin class is enough at each individualization step
    first = {}
    twin = [first.setdefault((up_loc[v], dn_loc[v]), v) for v in range(k)]

    best = [None]

    def leaf(discrete):
        # row v of the packed matrix has the bit of the i-th point in order at k - 1 - i
        order = [(cell.bit_length() - 1) for cell in discrete]
        rank = {w: k - 1 - i for i, w in enumerate(order)}
        rows = [_relabel(up_loc[v], rank) for v in order]
        if best[0] is None or rows < best[0]:
            best[0] = rows

    def search(cells):
        target = None
        for ci, cell in enumerate(cells):
            if cell & (cell - 1):
                target = ci
                break
        if target is None:
            leaf(cells)
            return
        tried = set()
        for v in _bits(cells[target]):
            if twin[v] in tried:
                continue
            tried.add(twin[v])
            split = cells[:target] + [1 << v, cells[target] & ~(1 << v)] + cells[target + 1:]
            search(_equitable(up_nb, dn_nb, split))

    search(cells)
    return bytes([k]) + b"".join(r.to_bytes((k + 7) // 8, "big") for r in best[0])


@dataclass(frozen=True)
class CanonicalForm:
    'relabel-invariant certificate; equality means isomorphism'
    certificate: bytes


def canonical_form(p):
    if p.n > CANON_MAX_POINTS:
        raise CapacityError("canonical form capped at %d points, got %d" % (CANON_MAX_POINTS, p.n))
    parts = sorted(_component_certificate(p, comp) for comp in p.components())
    return CanonicalForm(certificate=bytes([p.n]) + b"|".join(parts))


def are_isomorphic(p, q):
    if p.n != q.n:
        return False
    return canonical_form(p) == canonical_form(q)


# -- isolated points and type codes ----------------------------------------


def strip_isolated(p):
    '(sub-poset without isolated points, number of isolated points removed)'
    iso = 0
    for i in range(p.n):
        if p.comparable[i] == 1 << i:
            iso |= 1 << i
    return p.induced(p.carrier & ~iso), _popcount(iso)


def _has_crown(q23, uppers, lowers):
    """Induced 4 + 4 sub-poset whose comparability graph is a single
    8-cycle: each chosen lower under exactly two chosen uppers, each chosen
    upper over exactly two chosen lowers, all in one cycle."""
    ups = list(_bits(uppers))
    lows = list(_bits(lowers))
    if len(ups) < 4 or len(lows) < 4:
        return False
    for four_up in combinations(ups, 4):
        up_mask = sum(1 << u for u in four_up)
        cands = [l for l in lows if _popcount(q23.up[l] & up_mask) == 2]
        for four_low in combinations(cands, 4):
            # a degree-2 bipartite graph on 4 + 4 points is one 8-cycle or
            # two 4-cycles, and only the latter has two lowers under the
            # same two uppers
            nbhds = [q23.up[l] & up_mask for l in four_low]
            if len(set(nbhds)) == 4 and all(sum(n >> u & 1 for n in nbhds) == 2 for u in four_up):
                return True
    return False


def type_code(q23, core_mask):
    """Code u-c1c2c3 of a down-set without isolated points: u upper points,
    c_j lower points covered by exactly j of them.  Two codes are ambiguous
    and get a -0/-1 digit: 4-440 splits on containing an 8-crown, 6-442 on
    whether every upper point sits over some triply-covered lower point."""
    lows = q23.minimal_points()
    uppers, lowers = core_mask & ~lows, core_mask & lows
    u = _popcount(uppers)
    c = [0, 0, 0, 0]
    for l in _bits(lowers):
        c[_popcount(q23.up[l] & uppers)] += 1
    if c[0]:
        raise StructureError("core has an uncovered (isolated) lower point")
    code = "%d-%d%d%d" % (u, c[1], c[2], c[3])
    if code == "4-440":
        code += "-1" if _has_crown(q23, uppers, lowers) else "-0"
    elif code == "6-442":
        triple_mask = sum(1 << l for l in _bits(lowers) if _popcount(q23.up[l] & uppers) == 3)
        all_covered = all(q23.down[x] & triple_mask for x in _bits(uppers))
        code += "-0" if all_covered else "-1"
    return code


# -- the class catalogue ----------------------------------------------------


@dataclass
class IsoClassRecord:
    'one class of isolated-free down-sets of the 20-point middle region'
    representative: int      # down-set mask, local to the two-level poset
    type_code: str
    iota: int                # number of copies among the down-sets
    delta: int               # number of free lower points
    delta_mask: int          # free lower points of the representative
    members: tuple           # all copies, as masks
    t_val: int = None
    sigma_val: int = None
    downclosure_count: int = None
    inner_sum: int = None

    def sort_key(self):
        u, rest = self.type_code.split("-", 1)
        digits = rest.split("-")
        c = digits[0]
        # c3 can be two digits only in the full-carrier class
        c1, c2, c3 = int(c[0]), int(c[1]), int(c[2:])
        suffix = int(digits[1]) if len(digits) > 1 else -1
        return (int(u), self.delta, c1, c2, c3, suffix)


def representation_system(q23):
    """Classify every down-set of the two-level poset.

    records: one per isomorphism class of isolated-free down-sets (the
    cores), lexicographically least mask as representative, in catalogue
    order.  classes_all: one (record index, isolated count) pair per class
    of arbitrary down-sets, since every down-set is a core plus free lower
    points and the pair determines the class.

    A core is the down-closure of its upper points, so the cores are the
    entries of one _or_table of the upper points' down rows.  They are split
    into orbits under coordinate_automorphisms(q23), or each core is its own
    orbit without such automorphisms; canonical forms merge the orbits.
    """
    lows = q23.minimal_points()
    cores = set(_or_table([q23.down[u] for u in _bits(q23.carrier & ~lows)]))
    by_size = {}
    for orbit in orbits(cores, coordinate_automorphisms(q23)):
        by_size.setdefault(_popcount(orbit[0]), []).append(orbit)
    by_cert = {}
    for size, group in by_size.items():
        for orbit in group:
            # a certificate starts with the point count, so an orbit alone at
            # its size merges with no other and is keyed by the size instead
            cert = canonical_form(q23.induced(orbit[0])).certificate if len(group) > 1 else size
            by_cert.setdefault(cert, []).extend(orbit)
    records = []
    for members in by_cert.values():
        members.sort()
        rep = members[0]
        free = lows & ~rep
        records.append(
            IsoClassRecord(
                representative=rep,
                type_code=type_code(q23, rep),
                iota=len(members),
                delta=_popcount(free),
                delta_mask=free,
                members=tuple(members),
            )
        )
    records.sort(key=IsoClassRecord.sort_key)
    classes_all = [(idx, a) for idx, rec in enumerate(records) for a in range(rec.delta + 1)]
    return classes_all, records
