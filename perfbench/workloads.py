"""Seeded inputs and their oracles for the four benchmark workloads.

Every poset is built here from its definition (cover lines), relabelled by a
permutation drawn from the seed and written to a file; the program under
test only ever sees those files and its argv.  Each command carries the
exact stdout and exit code it must produce.  Expected values come from
tests/frozen.py (read by path), from closed forms computed here, or from a
direct residual count over this module's own closures.
"""

import importlib.util
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path


@dataclass(frozen=True)
class Command:
    'one CLI invocation and the exact result it must give'
    argv: tuple
    stdout: bytes
    exit_code: int = 0


def load_frozen(root):
    'the published reference values, loaded from tests/frozen.py by path'
    path = Path(root) / "tests" / "frozen.py"
    spec = importlib.util.spec_from_file_location("downsets_frozen_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- posets from their definitions ---------------------------------------------


@dataclass(frozen=True)
class Shape:
    'a poset as a point count plus cover pairs, and its known down-set count'
    n: int
    covers: tuple
    count: int


def boolean_shape(k, lo, hi, count):
    'subsets of a k-set with lo..hi elements, ordered by inclusion'
    words = [w for w in range(1 << k) if lo <= w.bit_count() <= hi]
    index = {w: i for i, w in enumerate(words)}
    covers = tuple(
        (index[w], index[w | 1 << b])
        for w in words
        for b in range(k)
        if not w >> b & 1 and (w | 1 << b) in index
    )
    return Shape(len(words), covers, count)


def box_count(dims):
    "down-sets of a product of chains: C(a+b, a) for two, MacMahon's formula for three"
    if len(dims) == 2:
        a, b = dims
        return math.comb(a + b, a)
    a, b, c = dims
    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    assert value.denominator == 1
    return value.numerator


def box_shape(dims):
    'product of chains of the given lengths, ordered componentwise'
    points = list(cartesian(*(range(d) for d in dims)))
    index = {pt: i for i, pt in enumerate(points)}
    covers = []
    for pt in points:
        for axis, d in enumerate(dims):
            if pt[axis] + 1 < d:
                up = pt[:axis] + (pt[axis] + 1,) + pt[axis + 1 :]
                covers.append((index[pt], index[up]))
    return Shape(len(points), tuple(covers), box_count(dims))


def direct_sum(*shapes):
    'disjoint union; its down-sets are tuples of down-sets of the parts'
    covers = []
    offset = 0
    for s in shapes:
        covers += [(lo + offset, hi + offset) for lo, hi in s.covers]
        offset += s.n
    return Shape(offset, tuple(covers), math.prod(s.count for s in shapes))


def relabel(shape, rng):
    'the same poset with points permuted and cover lines shuffled'
    perm = list(range(shape.n))
    rng.shuffle(perm)
    covers = [(perm[lo], perm[hi]) for lo, hi in shape.covers]
    rng.shuffle(covers)
    return Shape(shape.n, tuple(covers), shape.count), perm


def poset_text(shape):
    lines = ["poset v1", "points %d" % shape.n]
    lines += ["cover %d %d" % pair for pair in shape.covers]
    return "\n".join(lines) + "\n"


def closures(shape):
    'per point: (mask of points above it, mask of points below it), both inclusive'
    above = [1 << i for i in range(shape.n)]
    succ = [[] for _ in range(shape.n)]
    indeg = [0] * shape.n
    for lo, hi in shape.covers:
        succ[lo].append(hi)
        indeg[hi] += 1
    order = [i for i in range(shape.n) if indeg[i] == 0]
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    for i in reversed(order):
        for j in succ[i]:
            above[i] |= above[j]
    below = [0] * shape.n
    for i in range(shape.n):
        for j in range(shape.n):
            if above[i] >> j & 1:
                below[j] |= 1 << i
    return above, below


def pivot_stdout(shape, pivot):
    """Expected `count FILE --pivot` text for an antichain pivot: every subset
    N of the pivot is a trace, and its residual is the poset minus
    up(pivot - N) and down(N)."""
    above, below = closures(shape)
    hist = {}
    for sel in range(1 << len(pivot)):
        gone = 0
        for b, point in enumerate(pivot):
            gone |= below[point] if sel >> b & 1 else above[point]
        size = shape.n - gone.bit_count()
        hist[size] = hist.get(size, 0) + 1
    sizes = " ".join("%d:%d" % pair for pair in sorted(hist.items()))
    text = "%d\nterms: %d\nresidual sizes: %s\n" % (shape.count, 1 << len(pivot), sizes)
    return text.encode()


# -- the workloads -------------------------------------------------------------


def _dedekind(n, method, value, evaluations):
    return Command(
        ("dedekind", str(n), "--method", method),
        b"%d\nevaluations: %d\n" % (value, evaluations),
    )


def catalogue(frozen, rng, tmp):
    'both commands build the 34-class catalogue; checked against frozen CATALOGUE rows'
    # closed-form sigma calls happen on upper-bearing classes only, 2^delta each
    evaluations = sum(1 << delta for code, _, delta, *_ in frozen.CATALOGUE if code[0] != "0")
    rows = ["code,iota,delta,t,sigma,downsets,inner"]
    rows += [",".join(str(x) for x in row) for row in frozen.CATALOGUE]
    return [
        _dedekind(6, "iso", frozen.B_VALUES[6], evaluations),
        Command(("tables", "iso", "--format", "csv"), ("\n".join(rows) + "\n").encode()),
    ]


def sweep(frozen, rng, tmp):
    'the numpy bulk routes, the pairwise summation and the two small n = 5 sweeps'
    b5 = frozen.B_VALUES[5]
    return [
        _dedekind(7, "standard", frozen.B7, b5 * (b5 + 1) // 2),
        _dedekind(6, "mu", frozen.B_VALUES[6], sum(map(sum, frozen.MU_GRID))),
        _dedekind(6, "lemma2", frozen.B_VALUES[6], frozen.PRODUCT_COUNT),
        _dedekind(5, "nu", b5, sum(frozen.NU_ROW)),
        _dedekind(5, "gamma", b5, sum(map(sum, frozen.GAMMA_ROWS))),
    ]


def _write(tmp, name, text):
    path = Path(tmp) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _large_shapes(frozen):
    return {
        "b6": boolean_shape(6, 0, 6, frozen.B_VALUES[6]),
        "middle6": boolean_shape(6, 2, 4, frozen.BMM6),
        "box663": box_shape((6, 6, 3)),
        "grid10x12": box_shape((10, 12)),
        "sum120": direct_sum(
            box_shape((6, 6)), boolean_shape(5, 2, 3, frozen.BMM5), box_shape((4, 4, 4))
        ),
    }


def count_large(frozen, rng, tmp):
    'one memoized count per relabelled poset, plus two files the parser must reject'
    commands = []
    for name, shape in _large_shapes(frozen).items():
        shape, _ = relabel(shape, rng)
        path = _write(tmp, name + ".poset", poset_text(shape))
        commands.append(Command(("count", path), b"%d\n" % shape.count))
    k = rng.randrange(3, 9)
    ring = rng.sample(range(k), k)
    cycle = ["poset v1", "points %d" % k]
    cycle += ["cover %d %d" % (ring[i], ring[(i + 1) % k]) for i in range(k)]
    bad = {
        "cycle.poset": "\n".join(cycle) + "\n",
        "superscript.poset": "poset v1\npoints ²\n",
    }
    for name, text in bad.items():
        commands.append(Command(("count", _write(tmp, name, text)), b"", exit_code=2))
    return commands


def count_pivot(frozen, rng, tmp):
    'many small fresh-memo counts: antichain pivots of 10 points give 1024 terms each'
    shapes = _large_shapes(frozen)
    # point indices follow boolean_shape: words in ascending order
    middle_words = [w for w in range(64) if 2 <= w.bit_count() <= 4]
    middle_level3 = [i for i, w in enumerate(middle_words) if w.bit_count() == 3]
    jobs = [("middle6", rng.sample(middle_level3, 10)) for _ in range(3)]
    jobs.append(("b6", rng.sample([w for w in range(64) if w.bit_count() == 3], 10)))
    # ranks 9, 10 and 11 of the 10 x 12 grid are antichains of exactly 10 points
    rank = rng.choice((9, 10, 11))
    jobs.append(("grid10x12", [i for i in range(120) if i // 12 + i % 12 == rank]))
    commands = []
    for k, (name, pivot) in enumerate(jobs):
        shape, perm = relabel(shapes[name], rng)
        pivot = sorted(perm[i] for i in pivot)
        path = _write(tmp, "%s-%d.poset" % (name, k), poset_text(shape))
        commands.append(Command(
            ("count", path, "--pivot", ",".join(map(str, pivot))),
            pivot_stdout(shape, pivot),
        ))
    return commands


WORKLOADS = {
    "catalogue": catalogue,
    "count-large": count_large,
    "count-pivot": count_pivot,
    "sweep": sweep,
}


def build(workload, seed, frozen, tmp):
    'the commands of one workload pass, with inputs written under tmp'
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](frozen, rng, tmp)
