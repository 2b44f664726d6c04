"""The lattice of subsets of an n-set and its trimmed level ranges.

Point index equals the integer value of the n-digit binary word; x <= y is
bitwise containment.  The designated first digit of a word is the most
significant of the n bits, which makes the digit-based splits used by the
counting methods cheap bit tests.

Region selectors for sub_poset name the retained level range lo..n-hi,
with (lo, hi) read from REGIONS:

    full    all levels
    upper   levels 2..n      (bottom and atoms dropped)
    lower   levels 0..n-2    (top and co-atoms dropped)
    middle  levels 2..n-2    (both trims)
"""

import math
from collections import namedtuple

from .engine import containment_counts, coordinate_automorphisms, orbits
from .errors import CapacityError, DomainError, StructureError
from .poset import MAX_POINTS, Poset, _bits, _by_bytes, _byte_tables, _popcount, _subsets

REGIONS = {"full": (0, 0), "upper": (2, 0), "lower": (0, 2), "middle": (2, 2)}


# subset lattice of an n-set plus its level masks; levels[l] = mask of points with l ones
BooleanContext = namedtuple("BooleanContext", ("n", "lattice", "levels"))


def boolean(n):
    if n < 0:
        raise DomainError("negative atom count")
    if n >= MAX_POINTS.bit_length():  # 2^n > MAX_POINTS, checked without building 2^n
        points = "%d" % (1 << n) if n < 64 else "2^%d" % n
        raise CapacityError("lattice on %d atoms has %s points, cap is %d" % (n, points, MAX_POINTS))
    size = 1 << n
    # x's up row is x joined with each submask of its complement: 3^n steps in all
    rows = [sum(1 << (x | s) for s in _subsets((size - 1) ^ x)) for x in range(size)]
    labels = tuple(format(x, "0%db" % n) if n else "" for x in range(size))
    levels = [0] * (n + 1)
    for x in range(size):
        levels[_popcount(x)] |= 1 << x
    return BooleanContext(n=n, lattice=Poset(rows, labels=labels), levels=tuple(levels))


def level_mask(ctx, lo, hi):
    'mask of all points with lo <= ones <= hi'
    # the levels are disjoint, so their sum is their union; a stop below 0 would wrap round
    return sum(ctx.levels[max(lo, 0):max(hi + 1, 0)])


def sub_poset(ctx, which):
    'induced poset on one of the REGIONS level ranges; full is the lattice itself'
    if which not in REGIONS:
        raise DomainError("unknown region %r, expected one of %s" % (which, ", ".join(REGIONS)))
    if which == "middle" and ctx.n < 3:
        raise DomainError("middle region needs at least 3 atoms, got %d" % ctx.n)
    lo, hi = REGIONS[which]
    return ctx.lattice if which == "full" else ctx.lattice.induced(level_mask(ctx, lo, ctx.n - hi))


class DedekindLadder(namedtuple("DedekindLadder", ("n", "bmm", "bm", "b"))):
    """Down-set counts of the lattice and its trims, per atom count.

    bmm holds the supplied middle-region counts, bm the derived upper-region
    counts, b the full lattice counts.
    """
    __slots__ = ()

    @property
    def value(self):
        return self.b[self.n]


def dedekind_via_theorem2(n, bmm):
    """Down-set count of the n-atom lattice from middle-region counts.

    The upper-region counts satisfy bm(2) = 2 and, for k >= 3,
    bm(k) = bmm(k) + 2 + sum_{i=2}^{k-1} C(k,i) * bm(i); the full count is
    b(m) = 2 + m + sum_{k=2}^{m} C(m,k) * bm(k).  Only bmm(3..n) is needed.
    """
    if n < 0:
        raise DomainError("negative atom count")
    bm = {}
    if n >= 2:
        bm[2] = 2
    for k in range(3, n + 1):
        if k not in bmm:
            raise DomainError("missing middle-region count for %d atoms" % k)
        bm[k] = bmm[k] + 2 + sum(math.comb(k, i) * bm[i] for i in range(2, k))
    b = {}
    for m in range(n + 1):
        b[m] = 2 + m + sum(math.comb(m, k) * bm[k] for k in range(2, m + 1))
    return DedekindLadder(n=n, bmm={k: bmm[k] for k in sorted(bmm) if 3 <= k <= n}, bm=bm, b=b)


# result of the pairwise intersection-union summation
StandardRun = namedtuple("StandardRun", ("value", "summands"))


def _symmetric_orbits(lattice, members):
    """Orbits of the down-sets members of a subset lattice under the
    coordinate swaps together with duality D* = {~x : x not in D}, where ~x
    is the complement word.  Duality commutes with the swaps, so it maps
    each swap orbit onto a swap orbit, and each orbit here is a swap orbit
    joined with the swap orbit of its dual: a list of masks from the least,
    in ascending order of that member.  Duality is an order-reversing
    bijection of the down-sets: (D & E)* = D* | E*, so it swaps the counts
    of the down-sets below and above."""
    found = list(orbits(members, coordinate_automorphisms(lattice)))
    at = {d: i for i, orbit in enumerate(found) for d in orbit}
    complement = _byte_tables([1 << (lattice.n - 1 - x) for x in range(lattice.n)])
    out = []
    for i, orbit in enumerate(found):
        j = at[_by_bytes(lattice.carrier ^ orbit[0], complement)]
        if j == i:
            out.append(orbit)
        elif j > i:
            out.append(orbit + found[j])
    return out


def dedekind_standard(n):
    """Down-set count of the n-atom lattice by the pairwise summation.

    Enumerates D of the (n-2)-atom lattice once, pre-tabulates containment
    counts, and sums f(D, E) = below(D & E) * above(D | E) over ordered
    pairs, on Python ints.  f is unchanged when one coordinate swap or
    duality is applied to D and E together, so the sum over the pairs of
    orbits O_i x O_j is |O_i| times the row of one member R_i of O_i over
    O_j; and f(D, E) = f(E, D), so those sums are symmetric in i and j.
    With the orbits in falling size, the value is the sum over i of
    |O_i| * (row of R_i over O_i + 2 * row of R_i over the later orbits):
    257113 terms at n = 7 for 112 orbits of 7581 down-sets.  summands
    still counts the k(k+1)/2 unordered pairs of the k down-sets.  Capped
    at n = 7 by design.
    """
    if n < 2:
        raise DomainError("pairwise summation needs at least 2 atoms")
    if n > 7:
        raise CapacityError("pairwise summation is capped at 7 atoms")
    lattice = boolean(n - 2).lattice
    below, above = containment_counts(lattice)
    found = sorted(_symmetric_orbits(lattice, below), key=len, reverse=True)
    ordered = [d for orbit in found for d in orbit]
    value = end = 0
    for orbit in found:
        rep, end = orbit[0], end + len(orbit)
        own = sum([below[rep & e] * above[rep | e] for e in orbit])
        later = sum([below[rep & e] * above[rep | e] for e in ordered[end:]])
        value += len(orbit) * (own + 2 * later)
    k = len(below)
    return StandardRun(value=value, summands=k * (k + 1) // 2)


def theorem2_residual_shape(n, n_mask):
    """Classify the residual of the atom-level trace decomposition.

    For N a subset of the atom level of the n-atom lattice, removing
    up(atoms - N) | down(N) leaves: the bottom point alone when N is empty,
    nothing when |N| = 1, and a copy of the upper region of the |N|-atom
    lattice otherwise.  The point index is the word, so the residual is
    checked as one mask: the bottom point when N is empty, else the words of
    two or more of N's digits.  Compressing those words onto N's digits
    keeps containment and gives the upper region's words, so the mask fixes
    the shape; the tags are returned only after that check passes.
    """
    ctx = boolean(n)
    atoms = ctx.levels[1] if n >= 1 else 0
    if n_mask & ~atoms:
        raise DomainError("N must be a subset of the atom level")
    k = _popcount(n_mask)
    lattice = ctx.lattice
    support = sum(_bits(n_mask))  # an atom's point index is its word, so N's digits as one word
    want = 1 if k == 0 else sum(1 << w for w in _subsets(support) if _popcount(w) >= 2)
    if lattice.carrier & ~lattice.updown(atoms, n_mask) != want:
        raise StructureError("residual of a %d-atom trace is not the expected region" % k)
    if k == 0:
        return "singleton-bottom"
    return "empty" if k == 1 else "upper(%d)" % k
