"""Command-line front end.

Four commands: count a poset file (optionally through an explicit pivot
decomposition, optionally as a DOT digraph), compute a Dedekind number by a
chosen method, emit one of the coefficient tables, and run the verification
suite.  Output is plain decimal text, CSV or JSON, and is byte-identical
across runs and --jobs settings: nothing time- or machine-dependent is ever
printed.

Exit codes: 0 ok, 1 verification failure, 2 parse or usage error (ParseError,
OSError; a file's CycleError arrives as a ParseError), 3 CapacityError, 4
DomainError; any other error propagates as an internal fault.

Each function that runs a middle-region route, a table or a verify check
imports methods itself, and isoclasses where an iso route or a catalogue
check needs it, and calls through the module (methods.bmm5_nu()); JSON
output imports json in _json.  So `count` and `dedekind N --method
standard` load none of them, the other routes no isoclasses, and a name
rebound on its module, by a test or a tracer, is the one called.
"""

import argparse
import functools
import os
import sys

from .boolean import boolean, dedekind_standard, dedekind_via_theorem2, sub_poset
from .engine import count_downsets, count_via_decomposition, decompose, enumerate_downsets
from .errors import CapacityError, DomainError, ParseError
from .poset import _point_index, _popcount, _subsets, chain, poset_from_text, from_covers, product


B_SMALL = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}
NU_ROW = (388, 290, 195, 70, 40, 30, 0, 10, 0, 0, 1)
MAX_FILE_BYTES = 1 << 20  # count reads no more of a file than this


def _build_parser():
    jobs = dict(type=int, default=1, metavar="N",
                help="accepted and ignored: every command runs in one process")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--jobs", **jobs)
    parser = argparse.ArgumentParser(
        prog="downsets",
        description="count and decompose down-sets of finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", parents=[common], help="count the down-sets of a poset file")
    c.add_argument("file")
    view = c.add_mutually_exclusive_group()
    view.add_argument("--pivot", default=None, metavar="I,J,...",
                      help="decompose over these point indices and report term statistics")
    view.add_argument("--dot", action="store_true",
                      help="emit the transitive reduction as a DOT digraph instead")

    d = sub.add_parser("dedekind", parents=[common], help="compute a Dedekind number")
    d.add_argument("n", type=int)
    d.add_argument("--method", required=True,
                   choices=("theorem2", "standard", "nu", "gamma", "mu", "lemma2", "iso"))

    t = sub.add_parser("tables", parents=[common], help="emit a coefficient table")
    t.add_argument("which", choices=("nu", "gamma", "mu", "iso"))

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--jobs", **jobs)  # verify prints text only, so it takes no --format
    v.add_argument("--strict", action="store_true",
                   help="additionally sample non-representative class members")
    return parser


def _json(value, **kwargs):
    'value as one JSON document and a newline; json loads only for --format json'
    import json

    return json.dumps(value, **kwargs) + "\n"


# -- count -------------------------------------------------------------------


def _dot_digraph(p):
    lines = ["digraph poset {"]
    for i in range(p.n):
        name = str(i)
        if p.labels and p.labels[i] is not None:
            name = p.labels[i].replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (i, name))
    for a, b in p.covers():
        lines.append("  n%d -> n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_pivot(p, text):
    mask = 0
    for tok in text.replace(",", " ").split():
        i = _point_index(tok)
        if i is None:
            raise ParseError("pivot index %r is not an integer" % tok)
        if not 0 <= i < p.n:
            raise ParseError("pivot index %d out of range 0..%d" % (i, p.n - 1))
        mask |= 1 << i
    return mask


def cmd_count(args):
    # opened without waiting for a writer, then read blocking: a FIFO with none reads as empty
    nonblock = getattr(os, "O_NONBLOCK", 0)
    with open(args.file, "rb", opener=lambda path, flags: os.open(path, flags | nonblock)) as handle:
        if nonblock:
            os.set_blocking(handle.fileno(), True)
        data = handle.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ParseError("%s is larger than %d bytes" % (args.file, MAX_FILE_BYTES))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (args.file, exc)) from None
    p = poset_from_text(text)
    if args.dot:
        return _dot_digraph(p)
    m_mask = _parse_pivot(p, args.pivot or "")
    if not m_mask:
        value = count_downsets(p)
        if args.format == "json":
            return _json({"value": value})
        return "%d\n" % value
    sizes = {}
    value = terms = 0
    memo = {}  # one memo, and so one BUDGET of entries, for all terms
    for _, mask, _ in decompose(p, m_mask):
        size = _popcount(mask)
        sizes[size] = sizes.get(size, 0) + 1
        value += count_downsets(p, mask, memo)
        terms += 1
    hist = sorted(sizes.items())
    if args.format == "json":
        return _json({"value": value, "terms": terms, "residual_sizes": hist})
    if args.format == "csv":
        out = ["%d,%d" % (value, terms)]
        out += ["%d,%d" % pair for pair in hist]
        return "\n".join(out) + "\n"
    out = ["%d" % value, "terms: %d" % terms,
           "residual sizes: " + " ".join("%d:%d" % pair for pair in hist)]
    return "\n".join(out) + "\n"


# -- dedekind ----------------------------------------------------------------


def _route(method, n):
    """MethodReport of the middle-region route for (method, n); DomainError
    when no route covers it.  The table is built on every call, so it holds
    whatever methods and isoclasses bind the route names to at that moment.
    isoclasses loads only for the iso routes."""
    from . import methods

    def iso5():
        from . import isoclasses

        return methods.bmm5_iso(isoclasses.representation_system(sub_poset(boolean(5), "middle"))[1])

    def iso6():
        from . import isoclasses

        split = methods.build_qsplit()
        return methods.bmm6_iso(split, isoclasses.representation_system(split.q23)[1])

    routes = {
        ("nu", 5): methods.bmm5_nu,
        ("gamma", 5): methods.bmm5_gamma,
        ("iso", 5): iso5,
        ("iso", 6): iso6,
        ("mu", 6): methods.bmm6_mu,
        ("lemma2", 6): lambda: methods.bmm6_lemma2_reference(methods.build_qsplit()),
    }
    if (method, n) in routes:
        return routes[method, n]()
    sizes = [str(k) for m, k in routes if m == method]
    if len(sizes) == 1:
        raise DomainError("method %s covers n = %s only" % (method, sizes[0]))
    raise DomainError("method %s covers n = %s" % (method, " and ".join(sizes)))


def _dedekind(n, method):
    'value and evaluation counter for one (n, method) request'
    if method == "standard":
        run = dedekind_standard(n)
        return run.value, run.summands
    from . import methods

    if method == "theorem2":
        return dedekind_via_theorem2(n, methods.middle_counts(n)).value, max(0, n - 2)
    rep = _route(method, n)
    return dedekind_via_theorem2(n, {**methods.middle_counts(n - 1), n: rep.value}).value, rep.evaluations


def cmd_dedekind(args):
    value, evaluations = _dedekind(args.n, args.method)
    if args.format == "json":
        return _json({"n": args.n, "method": args.method, "value": value, "evaluations": evaluations})
    if args.format == "csv":
        return "%d,%s,%d,%d\n" % (args.n, args.method, value, evaluations)
    if args.method == "theorem2":
        return "%d\n" % value
    return "%d\nevaluations: %d\n" % (value, evaluations)


# -- tables ------------------------------------------------------------------


def cmd_tables(args):
    table = _route(args.which, 5 if args.which in ("nu", "gamma") else 6).table
    if args.which == "nu":
        if args.format == "json":
            return _json(table)
        return ",".join(str(x) for x in table) + "\n"
    if args.which == "gamma":
        if args.format == "json":
            return _json({"columns": [list(col) for col in table["columns"]], "rows": table["rows"]})
        head = "j," + ",".join("%d-%d" % col for col in table["columns"])
        lines = [head]
        for j, row in enumerate(table["rows"]):
            lines.append("%d," % j + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    if args.which == "mu":
        if args.format == "json":
            return _json(table)
        return "\n".join(",".join(str(x) for x in row) for row in table) + "\n"
    if args.format == "json":
        return _json(table, indent=2)
    lines = ["code,iota,delta,t,sigma,downsets,inner"]
    for r in table:
        lines.append("%s,%d,%d,%d,%d,%d,%d" % (
            r["code"], r["iota"], r["delta"], r["t"],
            r["sigma"], r["downsets_below"], r["inner_sum"]))
    return "\n".join(lines) + "\n"


# -- verify ------------------------------------------------------------------


def _expect(ok, detail=""):
    'fail a verify check; an explicit raise, so python -O keeps it'
    if not ok:
        raise AssertionError(detail)


def _random_poset(rng, max_points, density=0.25):
    'random DAG closed to a poset; points stay topologically ordered'
    n = rng.randrange(0, max_points + 1)
    covers = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < density:
                covers.append((i, j))
    return from_covers(n, covers)


def _check_ladder():
    from . import methods

    ladder = dedekind_via_theorem2(6, methods.middle_counts(6))
    _expect(ladder.bmm == {3: 1, 4: 64, 5: 6212, 6: 7741776}, ladder.bmm)
    _expect(ladder.bm == {2: 2, 3: 9, 4: 114, 5: 6894, 6: 7785062}, ladder.bm)
    _expect(ladder.b == B_SMALL, ladder.b)


def _check_standard():
    for n in range(2, 7):
        run = dedekind_standard(n)
        _expect(run.value == B_SMALL[n], (n, run.value))
        if n == 5:
            _expect(run.summands == 210, run.summands)
        if n == 6:
            _expect(run.summands == 14196, run.summands)


def _check_nu():
    from . import methods

    rep = methods.bmm5_nu()
    _expect(tuple(rep.table) == NU_ROW, rep.table)
    _expect(sum(rep.table) == 1024)
    _expect(rep.value == 6212, rep.value)


def _check_gamma():
    from . import methods

    rep = methods.bmm5_gamma()
    _expect(rep.evaluations == 80, rep.evaluations)
    for row in rep.table["rows"]:
        _expect(sum(row) == 16, row)
    _expect(rep.value == 6212, rep.value)


def _check_mu():
    from . import methods

    rep = methods.bmm6_mu()
    grid = rep.table
    _expect(grid[0][0] == 165980, grid[0][0])
    _expect(sum(sum(row) for row in grid) == 1 << 20)
    for i in range(16):
        for j in range(16):
            _expect(grid[i][j] == grid[j][i], (i, j))
    _expect(rep.value == 7741776, rep.value)


def _check_decomposition():
    b3 = boolean(3)
    memo = {}
    terms = decompose(b3.lattice, b3.levels[1])
    counts = sorted(count_downsets(b3.lattice, mask, memo) for _, mask, _ in terms)
    _expect(counts == [1, 1, 1, 2, 2, 2, 2, 9], counts)
    _expect(sum(counts) == 20)


def _check_random_sample():
    import random

    rng = random.Random(20260815)
    for _ in range(200):
        p = _random_poset(rng, 10)
        direct = count_downsets(p)
        _expect(direct == len(enumerate_downsets(p)))
        m_mask = 0
        for i in range(p.n):
            if rng.random() < 0.5:
                m_mask |= 1 << i
        _expect(direct == count_via_decomposition(p, m_mask))


def _check_gamma_uniformity():
    from . import methods

    reference = {}
    for n2 in _subsets(methods._gamma_pivot()[1]):
        key = _popcount(n2)
        got = methods.gamma_residual_multiset(n2)
        if key in reference:
            _expect(got == reference[key], key)
        else:
            reference[key] = got


def _run_checks(strict):
    'the (name, check) pairs of one verify run, in printed order'
    from . import isoclasses, methods

    split = methods.build_qsplit()

    @functools.cache
    def catalogue():
        'records of the q23 catalogue and their bmm6_iso report, built once per run'
        classes_all, records = isoclasses.representation_system(split.q23)
        return classes_all, records, methods.bmm6_iso(split, records)

    def check_lemma2():
        rep = methods.bmm6_lemma2_reference(split)
        _expect(rep.value == 7741776, rep.value)
        _expect(rep.table["inner_terms"] == 3933651, rep.table)

    def check_product_identity():
        # counted directly, not by lemma2's zeta transform over q23's down-sets
        _expect(count_downsets(product(chain(2), split.q23)) == 3933651)

    def check_catalogue():
        classes_all, records, report = catalogue()
        _expect(len(records) == 34, len(records))
        _expect(len(classes_all) == 91, len(classes_all))
        _expect(sum(rec.iota for rec in records) == 1024)
        _expect(methods.bmm5_iso(records).value == 6212)
        _expect(report.value == 7741776, report.value)
        _expect(report.evaluations == 272, report.evaluations)
        spent = sum(3 ** row["delta"] * row["downsets_below"] for row in report.table)
        _expect(spent == 208099, spent)

    def check_class_constancy():
        # a sampled non-representative member must reproduce its class row
        import random

        rng = random.Random(4057)
        _, records, report = catalogue()
        for rec, row in zip(records, report.table):
            copy = rec.representative
            others = [m for m in rec.members if m != rec.representative]
            if others:
                copy = rng.choice(others)
            got = methods.class_parameters(split, copy)
            _expect(got == {key: row[key] for key in got}, (rec.type_code, got))

    checks = [
        ("ladder", _check_ladder),
        ("standard", _check_standard),
        ("nu", _check_nu),
        ("gamma", _check_gamma),
        ("mu", _check_mu),
        ("lemma2", check_lemma2),
        ("product-identity", check_product_identity),
        ("catalogue", check_catalogue),
        ("decomposition", _check_decomposition),
        ("random-sample", _check_random_sample),
    ]
    if strict:
        checks += [("class-constancy", check_class_constancy), ("gamma-uniformity", _check_gamma_uniformity)]
    return checks


def cmd_verify(args):
    lines = []
    failed = 0
    for name, fn in _run_checks(args.strict):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - every failure must be reported
            failed += 1
            lines.append("FAIL %s: %s" % (name, exc))
        else:
            lines.append("ok   %s" % name)
    lines.append("%d checks, %d failed" % (len(lines), failed))
    return "\n".join(lines) + "\n", (1 if failed else 0)


# -- entry point ---------------------------------------------------------------


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "count":
            out = cmd_count(args)
        elif args.command == "dedekind":
            out = cmd_dedekind(args)
        elif args.command == "tables":
            out = cmd_tables(args)
        else:
            out, code = cmd_verify(args)
            sys.stdout.write(out)
            return code
    except (ParseError, OSError) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except CapacityError as exc:
        sys.stderr.write("capacity error: %s\n" % exc)
        return 3
    except DomainError as exc:
        sys.stderr.write("unsupported: %s\n" % exc)
        return 4
    sys.stdout.write(out)
    return 0
