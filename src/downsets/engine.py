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
maximal x.  Components are counted independently through a bitmask-keyed
memo.  Any point set of p can be counted, so the residuals of a trace
decomposition stay point sets of the decomposed poset and share one memo.

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
"""

import functools
from dataclasses import dataclass, field

from .errors import CapacityError, DomainError, NotADownSet, StructureError, TraceMismatch
from .poset import Poset, _bits, _by_bytes, _byte_tables, _popcount, _relabel

DEFAULT_ENUM_LIMIT = 1 << 24


@dataclass
class DownSetFamily:
    'all down-sets of a poset, as masks sorted ascending by bit pattern'
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass
class DecompositionTerm:
    """One summand of the trace decomposition: trace N and the residual
    p - (up(M - N) | down(N)) as the point set mask of the decomposed p.

    weight is the number of terms this one stands for: the size of N's orbit
    when decompose was given automorphisms, else 1.  residual_count counts
    the down-sets on mask through the memo all terms of one decomposition
    share.
    """
    N: int
    mask: int
    weight: int = 1
    _owner: Poset = field(default=None, repr=False, compare=False)
    _memo: dict = field(default=None, repr=False, compare=False)

    @property
    def residual_count(self):
        return count_downsets(self._owner, self.mask, self._memo)


@functools.cache
def _branching_number(a, b):
    """The root t > 1 of t**-a + t**-b == 1, by bisection on (1, 2].

    A split into branches that remove a and b points needs at most about
    t**n leaves on n points, so the smaller t, the better the split.
    """
    if a > b:
        a, b = b, a
    lo, hi = 1.0, 2.0
    for _ in range(64):
        mid = (lo + hi) / 2
        if mid ** -a + mid ** -b > 1:
            lo = mid
        else:
            hi = mid
    return hi


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
    counts 2.  memo maps point sets of p to their counts, so calls on one p
    may share it.  IndexError, as from Poset.components, for a mask outside p.
    """
    if mask is None:
        mask = p.carrier
    if memo is None:
        memo = {}

    def count(mask):
        if mask == 0:
            return 1
        hit = memo.get(mask)
        if hit is not None:
            return hit
        total = 1
        for comp in p.components(mask):
            if comp & (comp - 1) == 0:
                total *= 2
                continue
            hit = memo.get(comp)
            if hit is None:
                x = _pivot(p, comp)
                hit = memo[comp] = count(comp & ~p.up[x]) + count(comp & ~p.down[x])
            total *= hit
        memo[mask] = total
        return total

    return count(mask)


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
    'all down-sets of p, sorted by bit pattern; CapacityError past limit'
    out = []
    for d in _enum(p, p.carrier):
        out.append(d)
        if len(out) > limit:
            raise CapacityError("more than %d down-sets" % limit)
    out.sort()
    return DownSetFamily(members=tuple(out))


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


def chain_product_count(n, q, limit=DEFAULT_ENUM_LIMIT):
    """d(chain(n) x q) through the down-set lattice of q.

    A down-set of chain(n) x q is a weakly increasing n-tuple of down-sets of
    q, so the count is the n-th containment-power of D(q): start from all-ones
    and repeatedly replace f(N) with the sum of f over down-sets below N.
    """
    if n < 0:
        raise DomainError("negative chain length %d" % n)
    if n == 0:
        return 1
    fam = enumerate_downsets(q, limit=limit)
    if n == 1:
        return len(fam)
    if n == 2:
        # second containment power needs only the below counts
        below_counts, _ = containment_counts(fam)
        return sum(below_counts)
    below = []
    for _, inside in containment_blocks(fam.members):
        below.extend(row.nonzero()[0] for row in inside)
    f = [1] * len(fam)
    for _ in range(n - 1):
        f = [sum(f[j] for j in idx) for idx in below]
    return sum(f)


def containment_blocks(members):
    """Yield (start, inside) over consecutive row blocks of the containment
    matrix: inside[r, c] is True when members[c] is contained in
    members[start + r].

    Blocks hold about 2**18 cells, so a block's int64 temporaries (2 MB)
    stay in cache; 2**22-cell blocks (32 MB) made the scan of B5's 7581
    down-sets about 1.4x slower.  Masks below 2**63 are scanned as int64,
    wider ones as Python ints in an object array, so any width is exact.
    """
    import numpy as np

    k = len(members)
    wide = k > 0 and max(members) >= 1 << 63
    arr = np.asarray(members, dtype=object if wide else np.int64)
    step = max(1, (1 << 18) // max(k, 1))
    for start in range(0, k, step):
        block = arr[start : start + step, None]
        yield start, (arr[None, :] & ~block) == 0


def containment_counts(fam):
    """Per member: how many members it contains and how many contain it."""
    import numpy as np

    below = np.zeros(len(fam.members), dtype=np.int64)
    above = np.zeros(len(fam.members), dtype=np.int64)
    for start, inside in containment_blocks(fam.members):
        below[start : start + len(inside)] = inside.sum(axis=1)
        above += inside.sum(axis=0)
    return below.tolist(), above.tolist()


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
    seen = set()
    for start in sorted(members):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for mask in orbit:
            for perm_tables in tables:
                image = _by_bytes(mask, perm_tables)
                if image not in seen:
                    if image not in members:
                        raise StructureError("a permutation maps 0x%x outside the set" % mask)
                    seen.add(image)
                    orbit.append(image)
        yield orbit
