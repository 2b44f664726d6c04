"""Outside-in per-layer tracing of one `downsets` CLI command.

    python perfbench/tracer.py STATS_JSON ARG...

runs `downsets ARG...` in this process, as `python -m downsets ARG...` would,
after rebinding the package's public functions to wrappers.  No source file
is touched: every name under which a traced function is reachable (module
globals, names imported with `from .x import y`, class attributes) is
rebound, and installation fails if any binding of an original survives.
On exit the call counts, self times and tallies go to STATS_JSON as JSON.

A span wrapper times its call and subtracts the time of the spans opened
inside it, giving self time.  The two bit primitives get counter-only
wrappers: a timer around every one of their millions of calls would cost
more than they do, so their time stays with the caller and their speed is
measured instead by `kernel_timings` on a fixed sample.
"""

import functools
import json
import random
import statistics
import sys
import time
from collections import defaultdict

# (key, owner, attribute, kind, tally): owner is a module of the package, or
# "module.Class" to wrap a method on the class.  Keys may repeat.
TARGETS = (
    ("poset.popcount", "poset", "_popcount", "counter", None),
    ("poset.bits", "poset", "_bits", "counter", None),
    ("poset.construct", "poset.Poset", "__init__", "span", None),
    ("poset.components", "poset.Poset", "components", "span", None),
    ("engine.count_downsets", "engine", "count_downsets", "span", None),
    ("engine.pivot", "engine", "_pivot", "span", None),
    ("engine.decompose", "engine", "decompose", "generator", "terms"),
    ("engine.enumerate_downsets", "engine", "enumerate_downsets", "span", None),
    ("engine.containment_counts", "engine", "containment_counts", "span", None),
    ("boolean.standard", "boolean", "dedekind_standard", "span", "summands"),
    ("boolean.lattice", "boolean", "boolean", "span", None),
    ("boolean.lattice", "boolean", "sub_poset", "span", None),
    ("boolean.theorem2", "boolean", "dedekind_via_theorem2", "span", None),
    ("isoclasses.catalogue", "isoclasses", "representation_system", "span", None),
    ("isoclasses.canonical_form", "isoclasses", "canonical_form", "span", None),
    ("isoclasses.type_code", "isoclasses", "type_code", "span", None),
    ("methods.nu", "methods", "bmm5_nu", "span", "evaluations"),
    ("methods.gamma", "methods", "bmm5_gamma", "span", "evaluations"),
    ("methods.mu", "methods", "bmm6_mu", "span", "evaluations"),
    ("methods.lemma2", "methods", "bmm6_lemma2_reference", "span", "evaluations"),
    ("methods.iso", "methods", "bmm5_iso", "span", "evaluations"),
    ("methods.iso", "methods", "bmm6_iso", "span", "evaluations"),
    ("methods.sigma_precomp", "methods", "build_sigma_precomp", "span", None),
    ("methods.middle_counts", "methods", "middle_counts", "span", None),
    ("cli", "cli", "main", "span", None),
)

# Keys each workload exists to exercise; a traced pass that records no call
# to one of them means the workload or the wrappers have gone wrong.
INTENDED = {
    "catalogue": (
        "poset.popcount", "poset.bits", "poset.construct", "poset.components",
        "isoclasses.catalogue", "isoclasses.canonical_form", "isoclasses.type_code",
        "methods.iso", "methods.sigma_precomp", "methods.middle_counts",
        "boolean.lattice", "boolean.theorem2", "cli",
    ),
    "count-large": (
        "poset.popcount", "poset.bits", "poset.construct", "poset.components",
        "engine.count_downsets", "engine.pivot", "cli",
    ),
    "count-pivot": (
        "poset.construct", "poset.components", "engine.count_downsets",
        "engine.pivot", "engine.decompose", "cli",
    ),
    "sweep": (
        "boolean.standard", "boolean.lattice", "boolean.theorem2",
        "engine.enumerate_downsets", "engine.containment_counts",
        "methods.nu", "methods.gamma", "methods.mu", "methods.lemma2",
        "methods.middle_counts", "cli",
    ),
}


class Recorder:
    'call counts, self times and result tallies, keyed by layer'

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.tally = defaultdict(int)
        self.missing = []
        # time covered by child spans, one slot per open span plus the root
        self.open = [0]

    def _timed(self, key, call):
        self.open.append(0)
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            spent = time.perf_counter_ns() - start
            self.self_ns[key] += spent - self.open.pop()
            self.open[-1] += spent

    def counter(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def span(self, key, fn, tally=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            result = self._timed(key, lambda: fn(*args, **kwargs))
            if tally:
                self.tally["%s.%s" % (key, tally)] += getattr(result, tally)
            return result

        return wrapper

    def generator(self, key, fn, tally):
        'each step of the generator is a span; tally counts the items'

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = self._timed(key, lambda: next(steps))
                except StopIteration:
                    return
                self.tally["%s.%s" % (key, tally)] += 1
                yield item

        return wrapper

    def dump(self, path):
        stats = {
            "calls": dict(self.calls),
            "self_s": {k: ns / 1e9 for k, ns in self.self_ns.items()},
            "tally": dict(self.tally),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stats, handle)


def _package_namespaces():
    return [
        vars(module)
        for name, module in sorted(sys.modules.items())
        if name == "downsets" or name.startswith("downsets.")
    ]


def install(recorder):
    """Rebind every traced function wherever the package holds it.  A target
    the program no longer defines is skipped and listed in recorder.missing."""
    import importlib

    originals = []
    for key, where, attr, kind, tally in TARGETS:
        module_name, _, class_name = where.partition(".")
        module = importlib.import_module("downsets." + module_name)
        owner = getattr(module, class_name) if class_name else module
        original = vars(owner).get(attr)
        if original is None:
            recorder.missing.append(key)
            continue
        if kind == "counter":
            wrapped = recorder.counter(key, original)
        elif kind == "generator":
            wrapped = recorder.generator(key, original, tally)
        else:
            wrapped = recorder.span(key, original, tally)
        originals.append(original)
        if class_name:
            setattr(owner, attr, wrapped)
            continue
        for namespace in _package_namespaces():
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapped
    missed = [
        name
        for namespace in _package_namespaces()
        for name, value in namespace.items()
        if any(value is fn for fn in originals)
    ]
    if missed:
        raise RuntimeError("untraced bindings remain: %s" % ", ".join(missed))


def kernel_timings(repeats=15):
    """ns per `_popcount` call and per bit yielded by `_bits`, on a fixed
    seeded sample of masks up to 128 bits, each a median over repeats, and
    a list of the wrong answers either primitive gave."""
    from downsets.poset import _bits, _popcount

    rng = random.Random(20220621)
    sample = []
    for _ in range(2000):
        width = rng.randint(1, 128)
        density = rng.random()
        sample.append(sum(1 << i for i in range(width) if rng.random() < density))
    wrong = ["_popcount(0x%x) gave %d" % (m, _popcount(m))
             for m in sample if _popcount(m) != m.bit_count()]
    wrong += ["_bits(0x%x) is wrong" % m for m in sample
              if list(_bits(m)) != [i for i in range(m.bit_length()) if m >> i & 1]]
    set_bits = sum(m.bit_count() for m in sample)
    per_call, per_bit = [], []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for m in sample:
            _popcount(m)
        per_call.append((time.perf_counter_ns() - start) / len(sample))
        start = time.perf_counter_ns()
        for m in sample:
            for _ in _bits(m):
                pass
        per_bit.append((time.perf_counter_ns() - start) / set_bits)
    return statistics.median(per_call), statistics.median(per_bit), wrong


def main(argv):
    stats_path, args = argv[0], argv[1:]
    from downsets import cli

    recorder = Recorder()
    install(recorder)
    try:
        code = cli.main(args)
    finally:
        recorder.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
