"""Immutable finite posets over integer-indexed points.

Point sets are plain python ints used as bit vectors: bit i set means point i
is in the set.  A poset stores, per point, the bitmask of everything above it,
of everything below it and of their union, the point's comparability row, so
closures, comparability tests and component floods take one OR / AND per
point.  The carrier is capped at MAX_POINTS so masks stay a couple of machine
words wide.
"""

from .errors import CapacityError, CycleError, DomainError, NotADownSet, ParseError

MAX_POINTS = 128

# number of set bits of a non-negative mask
_popcount = int.bit_count


def _bits(mask):
    'iterate over set bit positions, ascending; mask must be non-negative'
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask):
    'all submasks, descending; includes mask itself and 0'
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _relabel(mask, image):
    'point set {image[i] : i in mask}; image is a sequence or a dict indexed by point'
    out = 0
    for i in _bits(mask):
        out |= 1 << image[i]
    return out


def _or_table(rows):
    """Entry m is the OR of rows[i] over the bits i of m, for all 2**k masks
    of k rows.  Filled by subset doubling: the masks with highest bit i are
    those below 2**i, each ORed with rows[i]."""
    table = [0]
    for row in rows:
        table += [prev | row for prev in table]
    return table


def _byte_tables(rows):
    """One _or_table per 8-row chunk, so _by_bytes(mask, _byte_tables(rows))
    is the OR of rows[i] over the bits i of mask.  Tables pay off only where
    many masks share one row set: a single 128-point mask walks its bits
    faster than 16 tables of 256 entries are built."""
    return [_or_table(rows[lo : lo + 8]) for lo in range(0, len(rows), 8)]


def _by_bytes(mask, tables):
    'OR of the rows over a non-negative mask, one lookup per byte; IndexError for a bit past the last row'
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    if mask:
        raise IndexError("mask has a bit past the last of %d byte tables" % len(tables))
    return out


def _flood(comparable, rest):
    """Connected components of the point set rest under the comparability
    rows, as masks ascending by lowest point; rest is not checked."""
    out = []
    while rest:
        # flood from the lowest point left; each point is expanded at
        # most once, the highest waiting one first, until none is left
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
        out.append(comp ^ rest)
    return out


class Poset:
    """Finite partial order. Immutable after construction.

    up[i] is the mask of all j with i <= j (including i itself); down[i] the
    dual; comparable[i] is up[i] | down[i]. labels is an optional tuple of
    one string per point. parent_map, when present, maps each local index
    back to the index of the poset this one was induced from.  Every Poset,
    sub-posets and duals included, is built here and checked to be a
    partial order on at most MAX_POINTS points.
    """

    __slots__ = ("n", "up", "down", "comparable", "labels", "parent_map")

    def __init__(self, up_rows, labels=None, parent_map=None):
        n = len(up_rows)
        if n > MAX_POINTS:
            raise CapacityError("poset has %d points, cap is %d" % (n, MAX_POINTS))
        up = tuple(up_rows)
        full = (1 << n) - 1
        for i in range(n):
            row = up[i]
            if not (row >> i) & 1:
                raise ValueError("relation not reflexive at %d" % i)
            if row & ~full:
                raise ValueError("relation row %d has bits outside the carrier" % i)
        down = [0] * n
        for i, row in enumerate(up):
            for j in _bits(row):
                down[j] |= 1 << i
        down = tuple(down)
        for i in range(n):
            if up[i] & down[i] != 1 << i:
                raise ValueError("relation not antisymmetric at %d" % i)
            for j in _bits(up[i]):
                if up[j] & ~up[i]:
                    raise ValueError("relation not transitive at %d <= %d" % (i, j))
        labels = tuple(labels) if labels is not None else None
        parent_map = tuple(parent_map) if parent_map is not None else None
        for name, seq in (("labels", labels), ("parent_map", parent_map)):
            if seq is not None and len(seq) != n:
                raise ValueError("%s has %d entries for %d points" % (name, len(seq), n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "comparable", tuple(u | d for u, d in zip(up, down)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "parent_map", parent_map)

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def __eq__(self, other):
        'equality is by relation matrix, labels and origin do not matter'
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return "Poset(n=%d, covers=%r)" % (self.n, self.covers())

    # -- carrier helpers ---------------------------------------------------

    @property
    def carrier(self):
        'mask with every point set'
        return (1 << self.n) - 1

    def _check(self, mask):
        if mask < 0 or mask & ~self.carrier:
            raise IndexError("point set 0x%x is not within the %d-point carrier" % (mask, self.n))

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def down_closure(self, mask):
        'least down-set containing mask'
        self._check(mask)
        out = 0
        for i in _bits(mask):
            out |= self.down[i]
        return out

    def up_closure(self, mask):
        'least up-set containing mask'
        self._check(mask)
        out = 0
        for i in _bits(mask):
            out |= self.up[i]
        return out

    def is_downset(self, mask):
        return self.down_closure(mask) == mask

    def is_upset(self, mask):
        return self.up_closure(mask) == mask

    def updown(self, m_mask, n_mask):
        """The removal set of the trace decomposition: up(M minus N) | down(N).

        N must be a down-set of the sub-poset induced on M.  This is the
        definition, for an N from outside a decomposition's own walk: orbit
        representatives, phi_inverse, gamma, lemma1_check and theorem 2.
        """
        self._check(m_mask)
        if n_mask & ~m_mask:
            raise NotADownSet("N is not contained in M")
        below = self.down_closure(n_mask)
        if below & m_mask & ~n_mask:
            raise NotADownSet("N is not a down-set of the sub-poset on M")
        return self.up_closure(m_mask & ~n_mask) | below

    def minimal_points(self, mask=None):
        if mask is None:
            mask = self.carrier
        self._check(mask)
        return sum(1 << i for i in _bits(mask) if not (self.down[i] & mask & ~(1 << i)))

    def maximal_points(self, mask=None):
        if mask is None:
            mask = self.carrier
        self._check(mask)
        return sum(1 << i for i in _bits(mask) if not (self.up[i] & mask & ~(1 << i)))

    def covers(self):
        'transitive reduction as a sorted list of (low, high) pairs'
        out = []
        for i in range(self.n):
            above = self.up[i] & ~(1 << i)
            for j in _bits(above):
                # j covers i iff nothing sits strictly between them
                between = above & self.down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        out.sort()
        return out

    # -- derived posets ----------------------------------------------------

    def induced(self, mask):
        'sub-poset on the points of mask, with a back-map to this poset'
        self._check(mask)
        points = list(_bits(mask))
        pos = {p: k for k, p in enumerate(points)}
        rows = [_relabel(self.up[p] & mask, pos) for p in points]
        labels = None if self.labels is None else [self.labels[p] for p in points]
        return Poset(rows, labels=labels, parent_map=points)

    def dual(self):
        'same carrier with the relation reversed'
        return Poset(self.down, labels=self.labels)

    def to_parent_mask(self, mask):
        'translate a local point set into the indexing of the parent poset'
        self._check(mask)
        if self.parent_map is None:
            raise DomainError("poset has no parent")
        return _relabel(mask, self.parent_map)

    def components(self, mask=None):
        'connected components of the comparability graph on mask, checked, all points by default'
        if mask is None:
            mask = self.carrier
        self._check(mask)
        return _flood(self.comparable, mask)


# -- constructors ----------------------------------------------------------


def from_covers(n, covers, labels=None):
    """Smallest partial order on 0..n-1 containing every (low, high) pair.

    Raises CycleError at the first cover whose high point already lies
    below its low point, and IndexError on out-of-range indices.
    """
    if n < 0 or n > MAX_POINTS:
        raise CapacityError("point count %d outside 0..%d" % (n, MAX_POINTS))
    up = [1 << i for i in range(n)]
    down = list(up)
    for k, (lo, hi) in enumerate(covers):
        if not (0 <= lo < n and 0 <= hi < n):
            raise IndexError("cover (%d, %d) outside 0..%d" % (lo, hi, n - 1))
        if (up[hi] >> lo) & 1:
            raise CycleError("cover (%d, %d) closes a directed cycle" % (lo, hi), k)
        if (up[lo] >> hi) & 1:
            continue
        # everything at or below lo now lies below everything at or above hi
        above, below = up[hi], down[lo]
        for x in _bits(below):
            up[x] |= above
        for y in _bits(above):
            down[y] |= below
    return Poset(up, labels=labels)


def chain(c):
    'total order 0 < 1 < ... < c-1'
    if c < 0:
        raise DomainError("negative chain length %d" % c)
    return from_covers(c, ((i, i + 1) for i in range(c - 1)))  # lazy, so an over-cap c is refused first


def antichain(a):
    'a pairwise-incomparable points'
    if a < 0:
        raise DomainError("negative antichain size %d" % a)
    return from_covers(a, [])


def product(p, q):
    """Componentwise order on pairs; index of (i, j) is i * q.n + j."""
    n = p.n * q.n
    if n > MAX_POINTS:
        raise CapacityError("product has %d points, cap is %d" % (n, MAX_POINTS))
    # (i, j)'s up row is q's up row of j, shifted into the block of each i2 in up(i)
    rows = [sum(q.up[j] << (i2 * q.n) for i2 in _bits(p.up[i])) for i in range(p.n) for j in range(q.n)]
    return Poset(rows)


def direct_sum(p, q):
    "disjoint union: p's points first, then q's, no cross relations"
    n = p.n + q.n
    if n > MAX_POINTS:
        raise CapacityError("direct sum has %d points, cap is %d" % (n, MAX_POINTS))
    rows = list(p.up) + [row << p.n for row in q.up]
    labels = None
    if p.labels is not None or q.labels is not None:
        left = p.labels if p.labels is not None else (None,) * p.n
        right = q.labels if q.labels is not None else (None,) * q.n
        labels = left + right
    return Poset(rows, labels=labels)


# -- text format -----------------------------------------------------------
#
#   poset v1
#   points <n>
#   label <i> <string>
#   cover <i> <j>
#
# '#' starts a comment, blank lines are skipped.


def _point_index(tok):
    """The point index a token writes in ASCII digits, else None.  int()
    alone would also read '+3', '1_0' and non-ASCII digits, and it raises
    past its digit limit.  The file format and count --pivot read here."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than int() accepts
            pass
    return None


def _indices(tokens, lineno, kind):
    'point indices of a file line, else a ParseError for the line'
    out = [_point_index(tok) for tok in tokens]
    if None in out:
        raise ParseError("line %d: malformed %s line" % (lineno, kind))
    return out


def poset_from_text(text):
    'parse the poset text format'
    n = None
    covers = []
    cover_lines = []
    labels = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "poset v1":
                raise ParseError("line %d: expected 'poset v1' header" % lineno)
            saw_header = True
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("label", "cover") and n is None:
            raise ParseError("line %d: %s before points" % (lineno, kind))
        if kind == "points":
            if n is not None:
                raise ParseError("line %d: duplicate points line" % lineno)
            if len(parts) != 2:
                raise ParseError("line %d: malformed points line" % lineno)
            (n,) = _indices(parts[1:], lineno, kind)
        elif kind == "label":
            if len(parts) < 3:
                raise ParseError("line %d: malformed label line" % lineno)
            (i,) = _indices(parts[1:2], lineno, kind)
            if i >= n:
                raise ParseError("line %d: label index %d out of range" % (lineno, i))
            if i in labels:
                raise ParseError("line %d: duplicate label for point %d" % (lineno, i))
            labels[i] = line.split(None, 2)[2]
        elif kind == "cover":
            if len(parts) != 3:
                raise ParseError("line %d: malformed cover line" % lineno)
            i, j = _indices(parts[1:], lineno, kind)
            if i >= n or j >= n:
                raise ParseError("line %d: cover (%d, %d) out of range" % (lineno, i, j))
            covers.append((i, j))
            cover_lines.append(lineno)
        else:
            raise ParseError("line %d: unknown construct %r" % (lineno, kind))
    if not saw_header:
        raise ParseError("empty input, expected 'poset v1' header")
    if n is None:
        raise ParseError("missing points line")
    lab = None
    if labels and n <= MAX_POINTS:
        lab = tuple(labels.get(i) for i in range(n))
    try:
        return from_covers(n, covers, labels=lab)
    except CycleError as exc:
        raise ParseError("line %d: %s" % (cover_lines[exc.position], exc)) from None


def poset_to_text(p):
    """serialize: header, points, labels, covers of the transitive reduction.
    DomainError for a label poset_from_text would not read back as itself:
    one that is not a string, is empty, holds '#' or a line break, or starts
    or ends with whitespace."""
    lines = ["poset v1", "points %d" % p.n]
    if p.labels is not None:
        for i, lab in enumerate(p.labels):
            if lab is None:
                continue
            # splitlines is [] for an empty label and splits at a line break
            if not isinstance(lab, str) or "#" in lab or lab.strip() != lab or lab.splitlines() != [lab]:
                raise DomainError("label %r of point %d does not survive the text format" % (lab, i))
            lines.append("label %d %s" % (i, lab))
    for i, j in p.covers():
        lines.append("cover %d %d" % (i, j))
    return "\n".join(lines) + "\n"
