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
inside one class.  Isomorphic cores have equal degree profiles, the sorted
(up-degree, down-degree) pairs of their points, so one canonical form per
orbit that shares its profile with another orbit decides which orbits merge.
"""

from dataclasses import dataclass

from .engine import BUDGET, coordinate_automorphisms, orbits
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


def canonical_form(p):
    'relabel-invariant certificate bytes; equal certificates mean isomorphic posets'
    if p.n > CANON_MAX_POINTS:
        raise CapacityError("canonical form capped at %d points, got %d" % (CANON_MAX_POINTS, p.n))
    parts = sorted(_component_certificate(p, comp) for comp in p.components())
    return bytes([p.n]) + b"|".join(parts)


def are_isomorphic(p, q):
    if p.n != q.n:
        return False
    return canonical_form(p) == canonical_form(q)


# -- type codes ------------------------------------------------------------


def _has_crown(q23, uppers, lowers):
    """Whether the lowers under exactly two uppers and the uppers make an
    8-crown, one 8-cycle of comparabilities.  Their upper-pairs must be four
    and distinct, and every upper must lie in two of them: a degree-2
    bipartite graph on 4 + 4 points is one 8-cycle or two 4-cycles, and only
    the latter has two lowers under the same two uppers."""
    pairs = [pair for pair in (q23.up[l] & uppers for l in _bits(lowers)) if _popcount(pair) == 2]
    return (len(set(pairs)) == len(pairs) == 4
            and all(sum(pair >> u & 1 for pair in pairs) == 2 for u in _bits(uppers)))


def _type_key(q23, core_mask):
    """(u, c1, c2, c3, s) of a down-set without isolated points: u upper
    points, c_j lower points covered by exactly j of them, and s the -0/-1
    digit that splits an ambiguous code, or -1 where there is none."""
    lows = q23.minimal_points()
    uppers, lowers = core_mask & ~lows, core_mask & lows
    c = [0, 0, 0, 0]
    for l in _bits(lowers):
        j = _popcount(q23.up[l] & uppers)
        if j > 3:
            raise StructureError("core has a lower point under %d upper points, the code allows 3" % j)
        c[j] += 1
    if c[0]:
        raise StructureError("core has an uncovered (isolated) lower point")
    key = (_popcount(uppers), c[1], c[2], c[3])
    if key == (4, 4, 4, 0):
        return key + (1 if _has_crown(q23, uppers, lowers) else 0,)
    if key == (6, 4, 4, 2):
        triple_mask = sum(1 << l for l in _bits(lowers) if _popcount(q23.up[l] & uppers) == 3)
        all_covered = all(q23.down[x] & triple_mask for x in _bits(uppers))
        return key + (0 if all_covered else 1,)
    return key + (-1,)


def type_code(q23, core_mask):
    """Code u-c1c2c3 of a down-set without isolated points: u upper points,
    c_j lower points covered by exactly j of them.  Two codes are ambiguous
    and get a -0/-1 digit: 4-440 splits on containing an 8-crown, 6-442 on
    whether every upper point sits over some triply-covered lower point.
    When c1 or c2 is 10 or more the counts are written apart, u-c1.c2.c3,
    so each code reads back as one key: a code without dots has one digit
    each for c1 and c2, and c3 takes the rest (10-0010 is c3 = 10)."""
    u, c1, c2, c3, s = _type_key(q23, core_mask)
    sep = "" if c1 < 10 and c2 < 10 else "."
    code = "%d-%s" % (u, sep.join("%d" % c for c in (c1, c2, c3)))
    return code if s < 0 else "%s-%d" % (code, s)


def _code_key(code):
    'the key (u, c1, c2, c3, s) that type_code formatted as code'
    u, counts, *s = code.split("-")
    c1, c2, c3 = counts.split(".") if "." in counts else (counts[0], counts[1], counts[2:])
    return int(u), int(c1), int(c2), int(c3), int(s[0]) if s else -1


# -- the class catalogue ----------------------------------------------------


@dataclass
class IsoClassRecord:
    """One class of isolated-free down-sets of the 20-point middle region;
    its t, sigma and inner-sum cells are its row of methods.table7.  The
    representative, iota and delta follow from the fields."""
    type_code: str
    delta_mask: int          # free lower points of the representative
    members: tuple           # all copies, as ascending masks local to the two-level poset

    @property
    def representative(self):
        'the least member'
        return self.members[0]

    @property
    def iota(self):
        'number of copies among the down-sets'
        return len(self.members)

    @property
    def delta(self):
        'number of free lower points'
        return _popcount(self.delta_mask)


def representation_system(q23):
    """Classify every down-set of the two-level poset.

    records: one per isomorphism class of isolated-free down-sets (the
    cores), lexicographically least mask as representative, in catalogue
    order (u, delta, c1, c2, c3, s), read back from the type code.
    classes_all: one (record index, isolated count) pair per class of
    arbitrary down-sets, since every down-set is a core plus free lower
    points and the pair determines the class.

    A core is the down-closure of its upper points, so the cores are the
    entries of one _or_table of the upper points' down rows: 2^u entries for
    u upper points, refused with CapacityError past engine.BUDGET before the
    table is built.  They are split into orbits under
    coordinate_automorphisms(q23), or each core is its own orbit without
    such automorphisms.  Orbits are grouped by the degree profile of a
    member, and canonical forms merge the orbits of a group.
    """
    lows = q23.minimal_points()
    uppers = list(_bits(q23.carrier & ~lows))
    if 1 << len(uppers) > BUDGET:
        raise CapacityError("core table of 2^%d entries exceeds the budget of %d" % (len(uppers), BUDGET))
    cores = set(_or_table([q23.down[u] for u in uppers]))
    by_profile = {}
    for orbit in orbits(cores, coordinate_automorphisms(q23)):
        core = orbit[0]
        profile = tuple(sorted((_popcount(q23.up[x] & core), _popcount(q23.down[x] & core))
                               for x in _bits(core)))
        by_profile.setdefault(profile, []).append(orbit)
    by_cert = {}
    for profile, group in by_profile.items():
        for orbit in group:
            # isomorphic cores have equal profiles, so an orbit alone at its
            # profile merges with no other and is keyed by the profile instead
            cert = canonical_form(q23.induced(orbit[0])) if len(group) > 1 else profile
            by_cert.setdefault(cert, []).extend(orbit)
    keyed = []
    for members in by_cert.values():
        members.sort()
        rec = IsoClassRecord(type_code(q23, members[0]), lows & ~members[0], tuple(members))
        u, c1, c2, c3, s = _code_key(rec.type_code)
        keyed.append(((u, rec.delta, c1, c2, c3, s), rec))
    records = [rec for _, rec in sorted(keyed, key=lambda pair: pair[0])]
    classes_all = [(idx, a) for idx, rec in enumerate(records) for a in range(rec.delta + 1)]
    return classes_all, records
