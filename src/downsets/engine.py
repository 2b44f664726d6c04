"""Counting and enumerating down-sets.

Counting splits a connected component C on a pivot x into the down-sets
avoiding x, which are the down-sets of C - up(x), and those containing x,
which are down(x) joined with a down-set of C - down(x):

    d(C) = d(C - up(x)) + d(C - down(x)).

The pivot is the point x with the largest product a * b of a = |up(x) & C|
and b = |down(x) & C|, the points its two branches remove, the lowest index
on ties.  The product grows with either side and, at one total a + b, is
largest for the balanced split; it costs two popcounts, one multiply and one
compare per point.  The single-point split d(C) = d(C - x) +
d(C - (up(x) | down(x))) removes only (1, a + b - 1) points; it is the
two-way split at a minimal or maximal x.  A point set counts as the product
of its components' counts, and the memo keys only connected sets of two or
more points: a disconnected set is never stored, since its components are.
Any point set of p can be counted, so the residuals of a trace decomposition
stay point sets of the decomposed poset: a caller counts each with
count_downsets(p, mask, memo) through one memo it holds, shared across the
terms of one decomposition and across decompositions of residuals nested
inside it.

The count checks and splits its mask once, with Poset.components; every
set the recursion meets is a subset of that mask, so it splits each with
poset._flood, the same flood with no check, one list of components per set.
One size budget, BUDGET, bounds all three jobs: the entries of a count's
memo, the down-sets enumerate_downsets lists and the terms of a
decomposition.  Past it each raises CapacityError: counting the down-sets of
height-2 posets is #P-complete, and some files of a few KB need far more.
enumerate_downsets and decompose count what they would list before they
list any, so every caller is refused at its first step.

Enumeration takes its pivots by the same rule but removes one point per
level: every down-set D of the sub-poset on a mask maps to D - {x}, a
down-set on mask - {x}, and the lifts D - {x} and D | {x} that are down-sets
form its full fiber.  Each lift carries its removal set up(mask - D) |
down(D), ORing in up(x) without x or down(x) with x, so decompose takes each
term's residual from the walk.  The two-way split would take a pivot per
down-set listed instead of one per point, which costs more than the filter
step per down-set and level it saves.

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
most k additions per point for k down-sets, not k**2 cells.  The transform
lists the down-sets itself, with enumerate_downsets, so every sum runs over
all down-sets of p, in ascending order of mask.
Rising size of down(x) orders the points by a linear extension.  The
down-sets of the dual are the complements, and D - x is one of p's exactly
when the complement of D plus x is one of the dual's; so the same pairs,
swept in the reverse order and direction, sum over the down-sets
containing each one.
"""

from .errors import CapacityError, DomainError, NotADownSet, StructureError
from .poset import MAX_POINTS, _by_bytes, _byte_tables, _flood, _popcount, _relabel

# most memo entries, listed down-sets or decomposition terms one call may
# hold: 1.5 times the 1408348 memo entries middle(7) leaves, the most of any
# count measured (B7 leaves 1269471)
BUDGET = 1 << 21


def _pivot(p, mask):
    """Point x of mask with the largest |up(x) & mask| * |down(x) & mask|,
    the lowest such index on ties.

    The points are taken from the highest down, so a tie moves the choice
    to the lower index; both rows hold x, so every product is at least 1.
    """
    up, down = p.up, p.down
    best, best_w = -1, 0
    rest = mask
    while rest:
        i = rest.bit_length() - 1
        rest ^= 1 << i
        w = _popcount(up[i] & mask) * _popcount(down[i] & mask)
        if w >= best_w:
            best, best_w = i, w
    return best


def count_downsets(p, mask=None, memo=None):
    """Number of down-sets of the sub-poset of p on mask, all of p by default.

    Poset.components checks and splits the mask once; each connected
    component C of two or more points splits on x = _pivot(p, C) into
    d(C - up(x)) + d(C - down(x)), each side split by poset._flood; an
    isolated point counts 2, and a set the product of its components' counts.
    memo maps connected point sets of p with two or more points to their
    counts, so calls on one p may share it.  IndexError, as from
    Poset.components, for a mask outside p; CapacityError when a count
    would store more than BUDGET entries in memo.
    """
    if mask is None:
        mask = p.carrier
    if memo is None:
        memo = {}
    up, down, comparable = p.up, p.down, p.comparable

    def count(comps):
        'product of the counts of connected point sets, each of two or more points stored in memo'
        total = 1
        for comp in comps:
            if comp & (comp - 1) == 0:
                total *= 2
                continue
            hit = memo.get(comp)
            if hit is None:
                x = _pivot(p, comp)
                hit = (count(_flood(comparable, comp & ~up[x]))
                       + count(_flood(comparable, comp & ~down[x])))
                if len(memo) >= BUDGET:
                    raise CapacityError("count needs more than the memo budget of %d entries" % BUDGET)
                memo[comp] = hit
            total *= hit
        return total

    return count(p.components(mask))


def _enum(p, mask):
    """Each down-set D of the sub-poset on mask as (D, up(mask - D) | down(D)).
    D - {x} is a down-set on mask - {x}, and the two lifts below are its full
    fiber; each ORs in the row of x that its side removes."""
    if mask == 0:
        yield 0, 0
        return
    x = _pivot(p, mask)
    bit = 1 << x
    up, down = p.up[x], p.down[x]
    strict_up = up & mask & ~bit
    down_in = down & mask & ~bit
    for d, removed in _enum(p, mask & ~bit):
        if not d & strict_up:
            yield d, removed | up
        if d & down_in == down_in:
            yield d | bit, removed | down


def enumerate_downsets(p):
    'all down-sets of p as masks ascending by bit pattern; CapacityError past BUDGET, before listing one'
    if count_downsets(p) > BUDGET:
        raise CapacityError("more than %d down-sets" % BUDGET)
    return tuple(sorted(d for d, _ in _enum(p, p.carrier)))


def decompose(p, m_mask, perms=()):
    """Stream the trace decomposition of p over the pivot set M as
    (N, mask, weight) tuples.

    One term per down-set N of the sub-poset on M, with mask the residual
    p - (up(M - N) | down(N)) as a point set of p, whose removal set the
    trace walk builds; no sub-poset and no memo is built.  The caller counts
    a residual with count_downsets(p, mask, memo), one memo serving all
    terms.  A residual R decomposes again over a pivot set inside R: each of
    those terms leaves mask & R of R, counted through the same memo.

    perms, point permutations of p as coordinate_automorphisms returns them
    (any iterable, read once), collapse the terms: one term per orbit of
    traces under the group they generate, N the least trace of the orbit
    and weight its size, so a sum of weight * f(term) equals the unreduced
    sum of f whenever f is invariant under isomorphism of the residual, with
    one Poset.updown per orbit.
    DomainError when a permutation is not an automorphism of p or does not
    map M onto itself.

    The first step counts the traces, one count_downsets on M, and raises
    CapacityError when there are more than BUDGET, before any is listed or
    passed to orbits, which holds them all at once.
    """
    p._check(m_mask)
    perms = tuple(perms)
    for perm in perms:
        if not _is_automorphism(p, perm):
            raise DomainError("%r is not an automorphism of the poset" % (perm,))
        if _relabel(m_mask, perm) != m_mask:
            raise DomainError("%r does not map the pivot set 0x%x onto itself" % (perm, m_mask))
    if count_downsets(p, m_mask) > BUDGET:
        raise CapacityError("more than %d decomposition terms" % BUDGET)
    if perms:
        for orbit in orbits((n_mask for n_mask, _ in _enum(p, m_mask)), perms):
            yield orbit[0], p.carrier & ~p.updown(m_mask, orbit[0]), len(orbit)
    else:
        for n_mask, removed in _enum(p, m_mask):
            yield n_mask, p.carrier & ~removed, 1


def count_via_decomposition(p, m_mask):
    'd(p) as the sum of residual counts over the trace decomposition, counted through one memo'
    memo = {}
    return sum(count_downsets(p, mask, memo) for _, mask, _ in decompose(p, m_mask))


def phi_forward(p, m_mask, n_mask, d_mask):
    """Map a down-set D with trace N on M to a down-set of the residual.

    Requires D down-closed and D & M == N; returns D - down(N).
    """
    if not p.is_downset(d_mask):
        raise NotADownSet("D is not a down-set")
    if d_mask & m_mask != n_mask:
        raise DomainError("D & M is 0x%x, expected 0x%x" % (d_mask & m_mask, n_mask))
    return d_mask & ~p.down_closure(n_mask)


def phi_inverse(p, m_mask, n_mask, d_residual):
    """Inverse map: residual down-set back to a down-set of p with trace N."""
    removed = p.updown(m_mask, n_mask)
    if d_residual < 0 or d_residual & ~p.carrier:
        raise DomainError("residual down-set %#x is not within the carrier" % d_residual)
    if d_residual & removed:
        raise NotADownSet("residual down-set meets the removed region")
    if p.down_closure(d_residual) & ~removed != d_residual:
        raise NotADownSet("not a down-set of the residual")
    return d_residual | p.down_closure(n_mask)


def chain_product_count(n, q):
    """d(chain(n) x q) through the down-set lattice of q.

    A down-set of chain(n) x q is a weakly increasing n-tuple of down-sets of
    q, so the count is the n-th containment-power of D(q): start from all-ones
    over the k down-sets _containment_pairs lists and apply the zeta
    transform n - 1 times, every pass over the one set of pairs it finds.
    Python ints keep the sums, which reach k**n, exact.  The chain is
    capped at MAX_POINTS, as chain(n) is, before any down-set is listed.
    """
    if n < 0:
        raise DomainError("negative chain length %d" % n)
    if n > MAX_POINTS:
        raise CapacityError("chain has %d points, cap is %d" % (n, MAX_POINTS))
    if n == 0:
        return 1
    members, pairs = _containment_pairs(q)
    f = [1] * len(members)
    for _ in range(n - 1):
        f = _zeta(pairs, f)
    return sum(f)


def _containment_pairs(p):
    """(members, pairs): members the down-sets of p as enumerate_downsets
    lists them, pairs the additions of the zeta transform over them: per
    point x with any, in a linear extension, the flat array d0, s0, d1, s1,
    ... of the positions of each member D with x maximal and of D - x.
    Maximal points come from one table of strict down rows."""
    from array import array  # an extension module, which count need not load

    members = enumerate_downsets(p)
    index = {d: i for i, d in enumerate(members)}
    tables = _byte_tables([row ^ (1 << i) for i, row in enumerate(p.down)])
    pairs = [array("l") for _ in range(p.n)]
    for i, d in enumerate(members):
        tops = d & ~_by_bytes(d, tables)
        while tops:
            low = tops & -tops
            tops ^= low
            pair = pairs[low.bit_length() - 1]
            pair.append(i)
            pair.append(index[d ^ low])
    return members, [pairs[x] for x in sorted(range(p.n), key=lambda x: _popcount(p.down[x])) if pairs[x]]


def _zeta(pairs, f):
    'f summed over the members each one contains, by the passes of _containment_pairs'
    g = list(f)
    for flat in pairs:
        it = iter(flat)
        for d, s in zip(it, it):
            g[d] += g[s]
    return g


def containment_sums(p, f):
    """Per down-set of p, the sum of the numbers f over the down-sets it
    contains, by the zeta transform of the module docstring.  f holds one
    number per down-set and the sums come back in the same order, the
    ascending masks of enumerate_downsets; each partial sum is a sub-sum of
    the final one.  DomainError when len(f) is not the number of down-sets."""
    members, pairs = _containment_pairs(p)
    if len(f) != len(members):
        raise DomainError("%d numbers for %d down-sets" % (len(f), len(members)))
    return _zeta(pairs, f)


def containment_counts(p):
    """(below, above): dicts keyed by the down-sets of p, how many down-sets
    each contains and how many contain it.  Both are zeta transforms over one
    set of pairs, the second swept in the reverse order and direction, which
    is the transform over the complements, the down-sets of the dual."""
    members, pairs = _containment_pairs(p)
    ones = [1] * len(members)
    below = _zeta(pairs, ones)
    above = _zeta([reversed(flat) for flat in reversed(pairs)], ones)
    return dict(zip(members, below)), dict(zip(members, above))


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
    perms may be any iterable; it is read once.

    Each permutation is applied through the byte tables of its rows
    1 << perm[i], built once per call: ceil(n / 8) lookups per image instead
    of a loop over the bits.
    DomainError for a member that is negative or has a point outside a
    permutation.  StructureError when a permutation maps a member outside
    the set: its orbit would then not be a part of the set, and orbit sizes
    used as weights would be wrong.
    """
    members, perms = set(masks), tuple(perms)
    if members and min(members) < 0:
        raise DomainError("a member is negative")
    if members and perms and max(members) >> min(map(len, perms)):
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
