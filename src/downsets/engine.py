"""Counting and enumerating down-sets.

Counting splits a connected component C on a pivot x into the down-sets
avoiding x, which are the down-sets of C - up(x), and those containing x,
which are down(x) joined with a down-set of C - down(x):

    d(C) = d(C - up(x)) + d(C - down(x)).

The pivot is the point whose branching vector (a, b) = (|up(x) & C|,
|down(x) & C|) has the smallest branching number, the root t > 1 of
t**-a + t**-b == 1: a recursion that always removes a and b points makes
about t**n leaves.  The single-point split d(C) = d(C - x) +
d(C - (up(x) | down(x))) removes (1, a + b - 1) points, whose branching
number is never smaller by convexity; it is the two-way split at a minimal or
maximal x.  A point set counts as the product of its components' counts, and
the memo keys only connected sets of two or more points: a disconnected set
is never stored, since its components are.  Any point set of p can be
counted, so the residuals of a trace decomposition stay point sets of the
decomposed poset and share one memo.

The count checks and splits its mask once, with Poset.components; every
set the recursion meets is a subset of that mask, so it floods the
components of the rest itself, on the comparability rows, with no check,
list or generator per set.  A memo holds at most MEMO_BUDGET entries, and a
count that would store one more raises CapacityError: counting the down-sets
of height-2 posets is #P-complete, and some files of a few KB need far more.

Enumeration takes its pivots by the same rule but removes one point per
level: every down-set D of the sub-poset on a mask maps to D - {x}, a
down-set on mask - {x}, and the lifts D - {x} and D | {x} that are down-sets
form its full fiber.  The two-way split would take a pivot per down-set
listed instead of one per point, which costs more than the filter step per
down-set and level it saves.

Symmetric sums run over orbits.  A point permutation that is an order
automorphism maps down-sets to down-sets and decomposition terms to terms
with isomorphic residuals, so a sum of an invariant summand over a set the
group maps onto itself is the sum over one representative per orbit, each
times its orbit size.  coordinate_automorphisms finds such permutations for
posets labelled by binary words; orbits splits a set of masks.

Contained-pair sums use the zeta transform over the lattice of down-sets
(Bjorklund et al., SODA 2012): for each point x, every down-set D with a
down-set D - x adds the partial sum at D - x to its own.  After the passes
for x_1..x_j of a linear extension, D holds the sum over the down-sets E
inside D with D - E within {x_1..x_j}; an E that misses x_j lies inside
D - x_j, a down-set, since a point of D above x_j would come later.  D - x
is a down-set exactly when x is maximal in D, so the additions are the pairs
(D, maximal point of D), found once per call and reused by every pass: at
most k additions per point for k down-sets, not k**2 cells.
Rising size of down(x) orders the points by a linear extension.  The
down-sets of the dual are the complements, and D - x is one of p's exactly
when the complement of D plus x is one of the dual's; so the same pairs,
swept in the reverse order and direction, sum over the members containing
each one.
"""

import functools
import math

from .errors import CapacityError, DomainError, NotADownSet, StructureError, TraceMismatch
from .poset import _bits, _by_bytes, _byte_tables, _popcount, _relabel

DEFAULT_ENUM_LIMIT = 1 << 24
# most entries a count_downsets memo may hold: 1.6 times the 1306315 that B7 leaves
MEMO_BUDGET = 1 << 21


class DecompositionTerm:
    """One summand of the trace decomposition: trace N and the residual
    p - (up(M - N) | down(N)) as the point set mask of the decomposed p.

    weight is the number of terms this one stands for: the size of N's orbit
    when decompose was given automorphisms, else 1.  residual_count counts
    the down-sets on mask through the memo all terms of one decomposition
    share.
    """
    __slots__ = ("N", "mask", "weight", "_owner", "_memo")

    def __init__(self, N, mask, weight=1, _owner=None, _memo=None):
        self.N = N
        self.mask = mask
        self.weight = weight
        self._owner = _owner
        self._memo = _memo

    @property
    def residual_count(self):
        return count_downsets(self._owner, self.mask, self._memo)


@functools.cache
def _branching_number(a, b):
    """The root t > 1 of t**-a + t**-b == 1 for a, b >= 1: the least double t
    with t**-a + t**-b <= 1, evaluated as written.

    Newton's method from t = 1 climbs to the root from below, since the left
    side falls and is convex in t.  nextafter steps then settle the last ulps
    on exactly that least double, the one 64 halvings of (1, 2] would reach.
    A split into branches that remove a and b points needs at most about
    t**n leaves on n points, so the smaller t, the better the split.
    """
    t = 1.0
    while True:
        step = (t ** -a + t ** -b - 1) / (a * t ** (-a - 1) + b * t ** (-b - 1))
        if t + step <= t:
            break
        t += step
    while t ** -a + t ** -b > 1:
        t = math.nextafter(t, 2.0)
    while (below := math.nextafter(t, 1.0)) ** -a + below ** -b <= 1:
        t = below
    return t


def _pivot(p, mask):
    """Point x of mask whose split into mask - up(x) and mask - down(x) has
    the smallest branching number, the lowest such index on ties.

    The branching number depends only on (|up(x) & mask|, |down(x) & mask|),
    and _branching_number caches it per pair.
    """
    up, down = p.up, p.down
    best, best_t = -1, 3.0  # every branching number is at most 2
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        t = _branching_number(_popcount(up[i] & mask), _popcount(down[i] & mask))
        if t < best_t:
            best, best_t = i, t
    return best


def count_downsets(p, mask=None, memo=None):
    """Number of down-sets of the sub-poset of p on mask, all of p by default.

    Each connected component C of two or more points splits on
    x = _pivot(p, C) into d(C - up(x)) + d(C - down(x)); an isolated point
    counts 2, and a set counts as the product of its components' counts.
    memo maps connected point sets of p with two or more points to their
    counts, so calls on one p may share it.  IndexError, as from
    Poset.components, for a mask outside p; CapacityError when a count
    would store more than MEMO_BUDGET entries in memo.
    """
    if mask is None:
        mask = p.carrier
    if memo is None:
        memo = {}
    up, down, comparable = p.up, p.down, p.comparable

    def split(comp):
        'count a connected set of two or more points on its pivot, and store it'
        x = _pivot(p, comp)
        hit = count(comp & ~up[x]) + count(comp & ~down[x])
        if len(memo) >= MEMO_BUDGET:
            raise CapacityError("count needs more than the memo budget of %d entries" % MEMO_BUDGET)
        memo[comp] = hit
        return hit

    def count(rest):
        total = 1
        while rest:
            # flood from the lowest point left, as Poset.components does
            todo = rest & -rest
            comp = rest  # less what the flood leaves
            rest ^= todo
            while todo:
                i = todo.bit_length() - 1
                todo ^= 1 << i
                grown = comparable[i] & rest
                if grown:
                    rest ^= grown
                    if not rest:
                        break
                    todo |= grown
            comp ^= rest
            # every count is positive, so a stored one never falls through to split
            total *= 2 if comp & (comp - 1) == 0 else memo.get(comp) or split(comp)
        return total

    total = 1
    for comp in p.components(mask):
        total *= 2 if comp & (comp - 1) == 0 else memo.get(comp) or split(comp)
    return total


def _enum(p, mask):
    if mask == 0:
        yield 0
        return
    x = _pivot(p, mask)
    bit = 1 << x
    strict_up = p.up[x] & mask & ~bit
    down_in = p.down[x] & mask & ~bit
    for d in _enum(p, mask & ~bit):
        if not d & strict_up:
            yield d
        if d & down_in == down_in:
            yield d | bit
    # every down-set D of the sub-poset on mask maps to D - {x}, a down-set of
    # the sub-poset on mask - {x}; the two lifts above are its full fiber


def enumerate_downsets(p, limit=DEFAULT_ENUM_LIMIT):
    'all down-sets of p as a tuple of masks ascending by bit pattern; CapacityError past limit'
    out = []
    for d in _enum(p, p.carrier):
        out.append(d)
        if len(out) > limit:
            raise CapacityError("more than %d down-sets" % limit)
    out.sort()
    return tuple(out)


def decompose(p, m_mask, perms=()):
    """Stream the trace decomposition of p over the pivot set M.

    One term per down-set N of the sub-poset on M, with the residual
    p - (up(M - N) | down(N)) as a point set of p; no sub-poset is built,
    and the terms of one call count their residuals through one memo.

    perms, point permutations of p as coordinate_automorphisms returns them,
    collapse the terms: one term per orbit of traces under the group they
    generate, N the least trace of the orbit and weight its size, so a sum
    of weight * f(term) equals the unreduced sum of f whenever f is invariant
    under isomorphism of the residual.  DomainError when a permutation is
    not an automorphism of p or does not map M onto itself.
    """
    p._check(m_mask)
    for perm in perms:
        if not _is_automorphism(p, perm):
            raise DomainError("%r is not an automorphism of the poset" % (perm,))
        if _relabel(m_mask, perm) != m_mask:
            raise DomainError("%r does not map the pivot set 0x%x onto itself" % (perm, m_mask))
    traces = _enum(p, m_mask)
    memo = {}
    # orbits must see every trace first; without perms the terms stream, so
    # a caller's term limit stops a decomposition too large to list
    for orbit in orbits(traces, perms) if perms else ([n_mask] for n_mask in traces):
        mask = p.carrier & ~p.updown(m_mask, orbit[0])
        yield DecompositionTerm(N=orbit[0], mask=mask, weight=len(orbit), _owner=p, _memo=memo)


def count_via_decomposition(p, m_mask):
    'd(p) as the sum of residual counts over the trace decomposition'
    return sum(term.residual_count for term in decompose(p, m_mask))


def phi_forward(p, m_mask, n_mask, d_mask):
    """Map a down-set D with trace N on M to a down-set of the residual.

    Requires D down-closed and D & M == N; returns D - down(N).
    """
    if not p.is_downset(d_mask):
        raise NotADownSet("D is not a down-set")
    if d_mask & m_mask != n_mask:
        raise TraceMismatch("D & M is 0x%x, expected 0x%x" % (d_mask & m_mask, n_mask))
    return d_mask & ~p.down_closure(n_mask)


def phi_inverse(p, m_mask, n_mask, d_residual):
    """Inverse map: residual down-set back to a down-set of p with trace N."""
    removed = p.updown(m_mask, n_mask)
    if d_residual < 0 or d_residual & ~p.carrier:
        raise DomainError("residual down-set %#x is not within the carrier" % d_residual)
    if d_residual & removed:
        raise NotADownSet("residual down-set meets the removed region")
    rest = p.carrier & ~removed
    for i in _bits(d_residual):
        if p.down[i] & rest & ~d_residual:
            raise NotADownSet("not a down-set of the residual")
    return d_residual | p.down_closure(n_mask)


def chain_product_count(n, q):
    """d(chain(n) x q) through the down-set lattice of q.

    A down-set of chain(n) x q is a weakly increasing n-tuple of down-sets of
    q, so the count is the n-th containment-power of D(q): start from all-ones
    over the k down-sets and apply the zeta transform n - 1 times, every pass
    over the one set of pairs _containment_pairs finds.  Python ints keep the
    sums, which reach k**n, exact.
    """
    if n < 0:
        raise DomainError("negative chain length %d" % n)
    if n == 0:
        return 1
    members = enumerate_downsets(q)
    pairs = _containment_pairs(q, members)
    f = [1] * len(members)
    for _ in range(n - 1):
        f = _zeta(pairs, f)
    return sum(f)


def _containment_pairs(p, members):
    """The additions of the zeta transform over members, all down-sets of p
    in any order: per point x with any, in a linear extension, the flat array
    d0, s0, d1, s1, ... of the positions of each member D with x maximal and
    of D - x.  Maximal points come from one table of strict down rows.
    NotADownSet for a member that is not a down-set of p, StructureError
    for a member listed twice or when some D - x is not a member."""
    from array import array  # an extension module, which count need not load

    index = {d: i for i, d in enumerate(members)}
    if len(index) != len(members):
        raise StructureError("a member is listed twice")
    tables = _byte_tables([row ^ (1 << i) for i, row in enumerate(p.down)])
    pairs = [array("l") for _ in range(p.n)]
    for i, d in enumerate(members):
        under = _by_bytes(d, tables)
        if under & ~d:
            raise NotADownSet("member 0x%x is not a down-set" % d)
        tops = d & ~under
        while tops:
            low = tops & -tops
            tops ^= low
            at = index.get(d ^ low)
            if at is None:
                raise StructureError("0x%x is a down-set but not a member" % (d ^ low))
            pair = pairs[low.bit_length() - 1]
            pair.append(i)
            pair.append(at)
    return [pairs[x] for x in sorted(range(p.n), key=lambda x: _popcount(p.down[x])) if pairs[x]]


def _zeta(pairs, f):
    'f summed over the members each one contains, by the passes of _containment_pairs'
    g = list(f)
    for flat in pairs:
        it = iter(flat)
        for d, s in zip(it, it):
            g[d] += g[s]
    return g


def containment_sums(p, members, f):
    """Per member, the sum of the numbers f (one per member) over the members
    it contains, by the zeta transform of the module docstring.  members are
    all down-sets of p, in any order; each partial sum is a sub-sum of the
    final one.  NotADownSet or StructureError for other members, as from
    _containment_pairs."""
    return _zeta(_containment_pairs(p, members), f)


def containment_counts(p, members):
    """Per member: how many members it contains and how many contain it.
    members are all down-sets of p, in any order, as for containment_sums.
    Both counts sweep one set of pairs: the second in the reverse order and
    direction, which is the zeta transform over the complements, the
    down-sets of the dual."""
    pairs = _containment_pairs(p, members)
    below = _zeta(pairs, [1] * len(members))
    above = [1] * len(members)
    for flat in reversed(pairs):
        it = iter(flat)
        for d, s in zip(it, it):
            above[s] += above[d]
    return below, above


# -- symmetry ----------------------------------------------------------------


def _is_automorphism(p, perm):
    'perm is a permutation of p\'s points that maps every up row onto the up row of its image'
    return (len(perm) == p.n and sorted(perm) == list(range(p.n))
            and all(_relabel(p.up[i], perm) == p.up[perm[i]] for i in range(p.n)))


def coordinate_automorphisms(p):
    """Order automorphisms of p that swap two adjacent coordinates of the
    point labels, as point permutations (image of point i at index i).

    Labels must be distinct binary words of one length, as boolean() writes
    them and induced() keeps them; otherwise the list is empty.  A swap is
    kept only when it maps the labels onto themselves and every up row onto
    the up row of its image, so at most one candidate per coordinate is
    checked and nothing else is searched.
    """
    labels = p.labels
    if labels is None or len(set(labels)) != p.n or not all(
        isinstance(lab, str) and lab and not lab.strip("01") and len(lab) == len(labels[0])
        for lab in labels
    ):
        return []
    words = [int(lab, 2) for lab in labels]
    index = {w: i for i, w in enumerate(words)}
    out = []
    for j in range(len(labels[0]) - 1 if labels else 0):
        perm = tuple(index.get(w ^ (3 << j) if ((w >> j) ^ (w >> (j + 1))) & 1 else w)
                     for w in words)
        if None not in perm and _is_automorphism(p, perm):
            out.append(perm)
    return out


def orbits(masks, perms):
    """Orbits of the group generated by perms on a set of point masks, each
    listed from its least member, in ascending order of that member.

    Each permutation is applied through the byte tables of its rows
    1 << perm[i], built once per call: ceil(n / 8) lookups per image instead
    of a loop over the bits.
    DomainError for a member that is negative or has a point outside a
    permutation.  StructureError when a permutation maps a member outside
    the set: its orbit would then not be a part of the set, and orbit sizes
    used as weights would be wrong.
    """
    members = set(masks)
    if members and perms and (min(members) < 0 or max(members) >> min(map(len, perms))):
        raise DomainError("a member has a point outside the permutations")
    tables = [_byte_tables([1 << point for point in perm]) for perm in perms]
    # each orbit takes its members out of the set, so one set is kept, not
    # two.  An image neither left in it nor in the orbit being built is
    # outside it: an orbit already listed holds the images and, as each
    # permutation has finite order, the preimages of its members
    for start in sorted(members):
        if start not in members:
            continue
        members.remove(start)
        orbit, inside = [start], {start}
        for mask in orbit:
            for perm_tables in tables:
                image = _by_bytes(mask, perm_tables)
                if image not in inside:
                    if image not in members:
                        raise StructureError("a permutation maps 0x%x outside the set" % mask)
                    members.remove(image)
                    inside.add(image)
                    orbit.append(image)
        yield orbit
