"""Command-line front end.

Four commands: count a poset file (optionally through an explicit pivot
decomposition, optionally as a DOT digraph), compute a Dedekind number by a
chosen method, emit one of the coefficient tables, and run the verification
suite.  Output is plain decimal text, CSV or JSON, and is byte-identical
across runs and --jobs settings: nothing time- or machine-dependent is ever
printed.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 capacity error,
4 unsupported request.
"""

import argparse
import json as jsonlib
import random
import sys

from .boolean import boolean, dedekind_standard, dedekind_via_theorem2, sub_poset
from .engine import (
    DEFAULT_ENUM_LIMIT,
    chain_product_count,
    count_downsets,
    count_via_decomposition,
    decompose,
    enumerate_downsets,
)
from .errors import CapacityError, DomainError, MissingInput, ParseError
from .isoclasses import representation_system
from .methods import (
    _gamma_pivot,
    bmm5_gamma,
    bmm5_iso,
    bmm5_nu,
    bmm6_iso,
    bmm6_lemma2_reference,
    bmm6_mu,
    build_qsplit,
    build_T0_T1,
    class_parameters,
    gamma_residual_multiset,
    middle_counts,
    table7,
)
from .poset import _popcount, _subsets, poset_from_text, from_covers


B_SMALL = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}
NU_ROW = (388, 290, 195, 70, 40, 30, 0, 10, 0, 0, 1)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted and ignored: every command runs in one process")
    parser = argparse.ArgumentParser(
        prog="downsets",
        description="count and decompose down-sets of finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", parents=[common], help="count the down-sets of a poset file")
    c.add_argument("file")
    c.add_argument("--pivot", default=None, metavar="I,J,...",
                   help="decompose over these point indices and report term statistics")
    c.add_argument("--dot", action="store_true",
                   help="emit the transitive reduction as a DOT digraph instead")
    c.add_argument("--limit", type=int, default=DEFAULT_ENUM_LIMIT,
                   help="cap on enumerated decomposition terms")

    d = sub.add_parser("dedekind", parents=[common], help="compute a Dedekind number")
    d.add_argument("n", type=int)
    d.add_argument("--method", required=True,
                   choices=("theorem2", "standard", "nu", "gamma", "mu", "lemma2", "iso"))

    t = sub.add_parser("tables", parents=[common], help="emit a coefficient table")
    t.add_argument("which", choices=("nu", "gamma", "mu", "iso"))

    v = sub.add_parser("verify", parents=[common], help="run the verification suite")
    v.add_argument("--strict", action="store_true",
                   help="additionally sample non-representative class members")
    return parser


# -- count -------------------------------------------------------------------


def _dot_digraph(p):
    lines = ["digraph poset {"]
    for i in range(p.n):
        name = str(i)
        if p.labels and p.labels[i] is not None:
            name = p.labels[i]
        lines.append('  n%d [label="%s"];' % (i, name))
    for a, b in p.covers():
        lines.append("  n%d -> n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_pivot(p, text):
    mask = 0
    for tok in text.replace(",", " ").split():
        try:
            i = int(tok)
        except ValueError:
            raise ParseError("pivot index %r is not an integer" % tok)
        if not 0 <= i < p.n:
            raise ParseError("pivot index %d out of range 0..%d" % (i, p.n - 1))
        mask |= 1 << i
    return mask


def cmd_count(args):
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (args.file, exc)) from None
    p = poset_from_text(text)
    if args.dot:
        return _dot_digraph(p)
    pivot = (args.pivot or "").strip()
    if not pivot:
        value = count_downsets(p)
        if args.format == "json":
            return jsonlib.dumps({"value": value}) + "\n"
        return "%d\n" % value
    m_mask = _parse_pivot(p, pivot)
    sizes = {}
    value = 0
    terms = 0
    for term in decompose(p, m_mask):
        terms += 1
        if terms > args.limit:
            raise CapacityError("more than %d decomposition terms" % args.limit)
        size = _popcount(term.mask)
        sizes[size] = sizes.get(size, 0) + 1
        value += term.residual_count
    hist = sorted(sizes.items())
    if args.format == "json":
        return jsonlib.dumps(
            {"value": value, "terms": terms, "residual_sizes": hist}
        ) + "\n"
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
    whatever the route names are bound to at that moment."""
    routes = {
        ("nu", 5): bmm5_nu,
        ("gamma", 5): bmm5_gamma,
        ("iso", 5): lambda: bmm5_iso(representation_system(sub_poset(boolean(5), "middle"))[1]),
        ("iso", 6): lambda: bmm6_iso(build_qsplit()),
        ("mu", 6): bmm6_mu,
        ("lemma2", 6): lambda: bmm6_lemma2_reference(build_qsplit()),
    }
    if (method, n) in routes:
        return routes[method, n]()
    sizes = [str(k) for m, k in routes if m == method]
    if not sizes:
        raise DomainError("unknown method %r" % method)
    if len(sizes) == 1:
        raise DomainError("method %s covers n = %s only" % (method, sizes[0]))
    raise DomainError("method %s covers n = %s" % (method, " and ".join(sizes)))


def _dedekind(n, method):
    'value and evaluation counter for one (n, method) request'
    if method == "theorem2":
        if not 0 <= n <= 6:
            raise DomainError("theorem2 ladder covers n = 0..6")
        bmm = middle_counts(n) if n >= 3 else {}
        return dedekind_via_theorem2(n, bmm).value, max(0, n - 2)
    if method == "standard":
        run = dedekind_standard(n)
        return run.value, run.summands
    rep = _route(method, n)
    return dedekind_via_theorem2(n, {**middle_counts(n - 1), n: rep.value}).value, rep.evaluations


def cmd_dedekind(args):
    value, evaluations = _dedekind(args.n, args.method)
    if args.format == "json":
        return jsonlib.dumps(
            {"n": args.n, "method": args.method, "value": value, "evaluations": evaluations}
        ) + "\n"
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
            return jsonlib.dumps(table) + "\n"
        return ",".join(str(x) for x in table) + "\n"
    if args.which == "gamma":
        if args.format == "json":
            return jsonlib.dumps(
                {"columns": [list(col) for col in table["columns"]], "rows": table["rows"]}
            ) + "\n"
        head = "j," + ",".join("%d-%d" % col for col in table["columns"])
        lines = [head]
        for j, row in enumerate(table["rows"]):
            lines.append("%d," % j + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    if args.which == "mu":
        if args.format == "json":
            return jsonlib.dumps(table) + "\n"
        return "\n".join(",".join(str(x) for x in row) for row in table) + "\n"
    if args.format == "json":
        return jsonlib.dumps(table, indent=2) + "\n"
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
    ladder = dedekind_via_theorem2(6, middle_counts(6))
    _expect(ladder.bmm == {3: 1, 4: 64, 5: 6212, 6: 7741776}, ladder.bmm)
    _expect(ladder.bm == {2: 2, 3: 9, 4: 114, 5: 6894, 6: 7785062}, ladder.bm)
    _expect(ladder.b == B_SMALL, ladder.b)


def _run_checks(strict):
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    add("ladder", _check_ladder)

    def check_standard():
        for n in range(2, 7):
            run = dedekind_standard(n)
            _expect(run.value == B_SMALL[n], (n, run.value))
            if n == 5:
                _expect(run.summands == 210, run.summands)
            if n == 6:
                _expect(run.summands == 14196, run.summands)

    add("standard", check_standard)

    def check_nu():
        rep = bmm5_nu()
        _expect(tuple(rep.table) == NU_ROW, rep.table)
        _expect(sum(rep.table) == 1024)
        _expect(rep.value == 6212, rep.value)

    add("nu", check_nu)

    def check_gamma():
        rep = bmm5_gamma()
        _expect(rep.evaluations == 80, rep.evaluations)
        for row in rep.table["rows"]:
            _expect(sum(row) == 16, row)
        _expect(rep.value == 6212, rep.value)

    add("gamma", check_gamma)

    def check_mu():
        rep = bmm6_mu()
        grid = rep.table
        _expect(grid[0][0] == 165980, grid[0][0])
        _expect(sum(sum(row) for row in grid) == 1 << 20)
        for i in range(16):
            for j in range(16):
                _expect(grid[i][j] == grid[j][i], (i, j))
        _expect(rep.value == 7741776, rep.value)

    add("mu", check_mu)

    split = build_qsplit()

    def check_lemma2():
        rep = bmm6_lemma2_reference(split)
        _expect(rep.value == 7741776, rep.value)
        _expect(rep.table["inner_terms"] == 3933651, rep.table)

    add("lemma2", check_lemma2)

    def check_product_identity():
        _expect(chain_product_count(2, split.q23) == 3933651)

    add("product-identity", check_product_identity)

    def check_catalogue():
        classes_all, records = representation_system(split.q23)
        _expect(len(records) == 34, len(records))
        _expect(len(classes_all) == 91, len(classes_all))
        _expect(sum(rec.iota for rec in records) == 1024)
        _expect(bmm5_iso(records).value == 6212)
        report = bmm6_iso(split, records)
        _expect(report.value == 7741776, report.value)
        _expect(report.evaluations == 272, report.evaluations)
        spent = sum(
            3 ** rec.delta * row["downsets_below"]
            for rec, row in zip(records, report.table)
        )
        _expect(spent == 208099, spent)

    add("catalogue", check_catalogue)

    def check_decomposition():
        b3 = boolean(3)
        counts = sorted(t.residual_count for t in decompose(b3.lattice, b3.levels[1]))
        _expect(counts == [1, 1, 1, 2, 2, 2, 2, 9], counts)
        _expect(sum(counts) == 20)

    add("decomposition", check_decomposition)

    def check_random_sample():
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

    add("random-sample", check_random_sample)

    if strict:

        def check_class_constancy():
            rng = random.Random(4057)
            _, bare = representation_system(split.q23)
            records = table7(split, bare)
            t1 = build_T0_T1(split)[1]
            for rec in records:
                copy = rec.representative
                others = [m for m in rec.members if m != rec.representative]
                if others:
                    copy = rng.choice(others)
                got = class_parameters(split, copy, t1)
                want = {key: getattr(rec, key) for key in got}
                _expect(got == want, (rec.type_code, got))

        add("class-constancy", check_class_constancy)

        def check_gamma_uniformity():
            reference = {}
            for n2 in _subsets(_gamma_pivot()[1]):
                key = _popcount(n2)
                got = gamma_residual_multiset(n2)
                if key in reference:
                    _expect(got == reference[key], key)
                else:
                    reference[key] = got

        add("gamma-uniformity", check_gamma_uniformity)

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
    except (DomainError, MissingInput) as exc:
        sys.stderr.write("unsupported: %s\n" % exc)
        return 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
