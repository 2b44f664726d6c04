import ast
import json
import os
import random
import sys
import subprocess
import time

import pytest

import downsets
from downsets import ParseError, StructureError, boolean, poset_from_text, poset_to_text, sub_poset
from downsets import cli, engine
from downsets.poset import _popcount
from conftest import random_poset
from frozen import CATALOGUE, GAMMA_COLUMNS, GAMMA_ROWS, MU_GRID, NU_ROW

DIAMOND_TEXT = """poset v1
points 4
label 0 bottom
cover 0 1
cover 0 2
cover 1 3
cover 2 3
"""


# child interpreters import the same package as this one, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(downsets.__file__))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p))


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.poset"
    path.write_text(DIAMOND_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def middle5_file(tmp_path_factory):
    mid = sub_poset(boolean(5), "middle")
    path = tmp_path_factory.mktemp("posets") / "middle5.poset"
    path.write_text(poset_to_text(mid))
    return str(path)


def upper_level_pivot():
    mid = sub_poset(boolean(5), "middle")
    return ",".join(str(i) for i in range(mid.n) if _popcount(mid.parent_map[i]) == 3)


# -- count ---------------------------------------------------------------------


def test_count_plain(diamond_file, capsys):
    code, out, err = run(["count", diamond_file], capsys)
    assert (code, out, err) == (0, "6\n", "")


def test_count_empty_pivot_same_as_none(diamond_file, capsys):
    'a pivot list with no index is no pivot: one plain count, not a one-term decomposition'
    for pivot in ("", ",", " , "):
        code, out, _ = run(["count", diamond_file, "--pivot", pivot], capsys)
        assert (code, out) == (0, "6\n")


def test_count_json(diamond_file, capsys):
    code, out, _ = run(["count", diamond_file, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 6}


def test_count_with_pivot_reproduces_the_sweep(middle5_file, capsys):
    code, out, _ = run(["count", middle5_file, "--pivot", upper_level_pivot()], capsys)
    assert code == 0
    hist = " ".join("%d:%d" % (i, c) for i, c in enumerate(NU_ROW) if c)
    assert out == "6212\nterms: 1024\nresidual sizes: %s\n" % hist


def test_count_pivot_csv_and_json(middle5_file, capsys):
    pivot = upper_level_pivot()
    code, out, _ = run(["count", middle5_file, "--pivot", pivot, "--format", "csv"], capsys)
    assert code == 0
    rows = ["6212,1024"] + ["%d,%d" % (i, c) for i, c in enumerate(NU_ROW) if c]
    assert out == "\n".join(rows) + "\n"
    code, out, _ = run(["count", middle5_file, "--pivot", pivot, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "value": 6212,
        "terms": 1024,
        "residual_sizes": [[i, c] for i, c in enumerate(NU_ROW) if c],
    }


def test_count_dot(diamond_file, capsys):
    code, out, _ = run(["count", diamond_file, "--dot"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph poset {"
    assert lines[-1] == "}"
    assert '  n0 [label="bottom"];' in lines
    assert '  n3 [label="3"];' in lines
    arrows = {l for l in lines if "->" in l}
    assert arrows == {"  n0 -> n1;", "  n0 -> n2;", "  n1 -> n3;", "  n2 -> n3;"}


def test_count_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = tmp_path / "quoted.poset"
    path.write_text('poset v1\npoints 2\nlabel 0 a"b\nlabel 1 c\\d\ncover 0 1\n')
    code, out, _ = run(["count", str(path), "--dot"], capsys)
    assert code == 0
    assert '  n0 [label="a\\"b"];' in out.splitlines()
    assert '  n1 [label="c\\\\d"];' in out.splitlines()


def test_count_dot_and_pivot_are_a_usage_error(diamond_file, capsys):
    'the DOT view reads no pivot, so giving both is refused rather than one ignored'
    with pytest.raises(SystemExit) as info:
        cli.main(["count", diamond_file, "--dot", "--pivot", "1"])
    assert info.value.code == 2
    assert "--pivot: not allowed with argument --dot" in capsys.readouterr().err


def test_count_missing_file(capsys):
    code, _, err = run(["count", "/nonexistent/x.poset"], capsys)
    assert code == 2
    assert err.startswith("parse error:")


def test_count_bad_pivot(diamond_file, capsys):
    code, _, err = run(["count", diamond_file, "--pivot", "0,zebra"], capsys)
    assert code == 2
    assert "zebra" in err
    code, _, err = run(["count", diamond_file, "--pivot", "0,9"], capsys)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("token", ["1_0", "+3", "-0", "\u0663", "3.0", pytest.param("1" * 4301, id="4301-digits")])
def test_count_pivot_takes_ascii_digits_only(middle5_file, capsys, token):
    """the file format and --pivot read an index by one rule, each with its own
    message: int() alone would read the first four as 10, 3, 0 and 3, and
    raises past its 4300-digit limit"""
    with pytest.raises(ParseError) as info:
        poset_from_text("poset v1\npoints %s\n" % token)
    assert str(info.value) == "line 2: malformed points line"
    code, out, err = run(["count", middle5_file, "--pivot=" + token], capsys)
    assert (code, out) == (2, "")
    assert err == "parse error: pivot index %r is not an integer\n" % token


def test_count_term_limit(middle5_file, monkeypatch, capsys):
    'the upper level of middle(5) has 1024 traces; the one budget, not an option, bounds them'
    monkeypatch.setattr(engine, "BUDGET", 1023)
    code, out, err = run(["count", middle5_file, "--pivot", upper_level_pivot()], capsys)
    assert (code, out) == (3, "")
    assert err == "capacity error: more than 1023 decomposition terms\n"
    with pytest.raises(SystemExit) as usage:
        cli.main(["count", middle5_file, "--pivot", upper_level_pivot(), "--limit", "3"])
    assert usage.value.code == 2


def test_count_refuses_a_decomposition_past_the_limit_before_streaming_it(tmp_path):
    'level 3 of middle(7) is a 35-point antichain: 2**35 and, over 22 of its points, 2**22 terms'
    mid = sub_poset(boolean(7), "middle")
    path = tmp_path / "middle7.poset"
    path.write_text(poset_to_text(mid))
    level3 = [str(i) for i in range(mid.n) if _popcount(mid.parent_map[i]) == 3]
    for points in (level3, level3[:22]):
        proc = subprocess.run([sys.executable, "-m", "downsets", "count", str(path), "--pivot", ",".join(points)],
                              capture_output=True, text=True, timeout=10, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "capacity error: more than 2097152 decomposition terms\n"


def test_count_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("poset v1\npoints 2\ncover 0 5\n")
    code, _, err = run(["count", str(path)], capsys)
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("text, line", [
    ("poset v1\npoints 3\ncover 0 1\ncover 1 2\ncover 2 0\n", 5),
    ("poset v1\npoints 2\ncover 0 1\ncover 1 1\n", 4),
], ids=["cycle", "self-loop"])
def test_count_cyclic_file_is_a_parse_error(tmp_path, capsys, text, line):
    path = tmp_path / "cyclic.poset"
    path.write_text(text)
    code, out, err = run(["count", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line %d: cover" % line)


@pytest.mark.parametrize("text, line", [
    ("poset v1\npoints \u00b2\n", 2),
    ("poset v1\npoints 2\nlabel \u0661 x\n", 3),
    ("poset v1\npoints 2\ncover 0 \u0661\n", 3),
], ids=["points", "label", "cover"])
def test_count_non_ascii_digits_are_a_parse_error(tmp_path, capsys, text, line):
    path = tmp_path / "digits.poset"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["count", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line %d: malformed" % line)


def test_count_duplicate_label_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "relabelled.poset"
    path.write_text("poset v1\npoints 2\nlabel 0 a\nlabel 0 b\n")
    code, out, err = run(["count", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "parse error: line 4: duplicate label for point 0\n"


def test_count_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.poset"
    path.write_bytes(b"poset v1\npoints 2\nlabel 0 caf\xe9\n")
    code, out, err = run(["count", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "UTF-8" in err


@pytest.mark.parametrize("size", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1])
def test_count_reads_at_most_one_mebibyte(tmp_path, capsys, size):
    'a comment pads the diamond to size bytes; past 2^20 the file is refused unparsed'
    path = tmp_path / "padded.poset"
    path.write_text(DIAMOND_TEXT + "#" * (size - len(DIAMOND_TEXT) - 1) + "\n")
    assert path.stat().st_size == size
    if size <= cli.MAX_FILE_BYTES:
        assert run(["count", str(path)], capsys) == (0, "6\n", "")
    else:
        assert run(["count", str(path)], capsys) == (
            2, "", "parse error: %s is larger than 1048576 bytes\n" % path)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
def test_count_of_an_endless_file_is_a_parse_error(capsys):
    assert run(["count", "/dev/zero"], capsys) == (
        2, "", "parse error: /dev/zero is larger than 1048576 bytes\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_count_of_a_fifo_with_no_writer_is_empty(tmp_path):
    'the file opens without waiting for a writer, and an empty file is a parse error'
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.run([sys.executable, "-m", "downsets", "count", str(fifo)],
                          capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("parse error:")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
def test_count_reads_a_slow_pipe_on_stdin():
    'the read blocks until the writer closes the pipe, across a pause in the middle of the file'
    proc = subprocess.Popen([sys.executable, "-m", "downsets", "count", "/dev/stdin"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    half = len(DIAMOND_TEXT) // 2
    proc.stdin.write(DIAMOND_TEXT[:half])
    proc.stdin.flush()
    time.sleep(0.5)
    out, err = proc.communicate(DIAMOND_TEXT[half:], timeout=60)
    assert (proc.returncode, out, err) == (0, "6\n", "")


FUZZ_TOKENS = ("", "0", "1", "11", "12", "-1", "129", "99999999999", "x", "\u00b2",
               "points", "cover", "label", "poset", "v1", "#")


def _mutate(rng, data):
    'one random edit of a poset file: a line dropped or repeated, a token replaced, or a byte'
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, rng.choice(lines))
    elif op == 2:
        toks = lines[i].split(b" ")
        toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS).encode()
        lines[i] = b" ".join(toks)
    else:
        line = bytearray(lines[i])
        line.insert(rng.randrange(len(line) + 1), rng.randrange(256))
        lines[i] = bytes(line)
    return b"\n".join(lines)


def test_count_survives_mutated_files(tmp_path, capsys):
    'seeded fuzz: every mutated file ends in a count, a parse error or a capacity error'
    rng = random.Random(2718)
    path = tmp_path / "fuzz.poset"
    for case in range(300):
        data = poset_to_text(random_poset(rng, 12)).encode()
        for _ in range(rng.randint(1, 3)):
            data = _mutate(rng, data)
        path.write_bytes(data)
        try:
            code = cli.main(["count", str(path)])
        except Exception as exc:  # noqa: BLE001 - report the input that escaped
            pytest.fail("case %d: %r escaped on %r" % (case, exc, data))
        capsys.readouterr()
        assert code in (0, 2, 3), (case, code, data)


# -- dedekind --------------------------------------------------------------------


def test_dedekind_ladder_values(capsys):
    for n, want in ((0, 2), (1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)):
        code, out, _ = run(["dedekind", str(n), "--method", "theorem2"], capsys)
        assert (code, out) == (0, "%d\n" % want)


def test_dedekind_nu(capsys):
    code, out, _ = run(["dedekind", "5", "--method", "nu"], capsys)
    assert (code, out) == (0, "7581\nevaluations: 1024\n")


def test_dedekind_gamma_csv(capsys):
    code, out, _ = run(["dedekind", "5", "--method", "gamma", "--format", "csv"], capsys)
    assert (code, out) == (0, "5,gamma,7581,80\n")


def test_dedekind_standard_json(capsys):
    code, out, _ = run(["dedekind", "4", "--method", "standard", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 4, "method": "standard", "value": 168, "evaluations": 21}


def test_dedekind_mu(capsys):
    code, out, _ = run(["dedekind", "6", "--method", "mu"], capsys)
    assert (code, out) == (0, "7828354\nevaluations: %d\n" % (1 << 20))


def test_dedekind_iso_five(capsys):
    code, out, _ = run(["dedekind", "5", "--method", "iso"], capsys)
    assert (code, out) == (0, "7581\nevaluations: 34\n")


def test_dedekind_out_of_range(capsys):
    code, _, err = run(["dedekind", "4", "--method", "nu"], capsys)
    assert code == 4
    assert err.startswith("unsupported:")
    code, _, err = run(["dedekind", "7", "--method", "theorem2"], capsys)
    assert code == 4
    code, _, err = run(["dedekind", "8", "--method", "standard"], capsys)
    assert code == 3
    code, _, err = run(["dedekind", "1", "--method", "standard"], capsys)
    assert code == 4


def test_theorem2_outside_its_ladder_is_unsupported(capsys):
    'the middle-region counts refuse n past their reach before counting; no n is negative'
    for n in ("8", "100000", "-1"):
        code, out, err = run(["dedekind", n, "--method", "theorem2"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("unsupported:")


@pytest.mark.parametrize("method, n, covered", [
    ("nu", 4, "5 only"), ("nu", 6, "5 only"),
    ("gamma", 4, "5 only"), ("gamma", 6, "5 only"),
    ("mu", 5, "6 only"), ("mu", 7, "6 only"),
    ("lemma2", 5, "6 only"), ("lemma2", 7, "6 only"),
    ("iso", 4, "5 and 6"), ("iso", 7, "5 and 6"),
])
def test_dedekind_uncovered_route_message(capsys, method, n, covered):
    code, out, err = run(["dedekind", str(n), "--method", method], capsys)
    assert (code, out, err) == (4, "", "unsupported: method %s covers n = %s\n" % (method, covered))


def test_dedekind_unknown_method_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["dedekind", "5", "--method", "sorcery"])
    assert info.value.code == 2
    capsys.readouterr()


# -- tables ----------------------------------------------------------------------


def test_tables_nu_bytes(capsys):
    code, out, _ = run(["tables", "nu"], capsys)
    assert (code, out) == (0, "388,290,195,70,40,30,0,10,0,0,1\n")


def test_tables_nu_json(capsys):
    code, out, _ = run(["tables", "nu", "--format", "json"], capsys)
    assert json.loads(out) == list(NU_ROW)
    assert code == 0


def test_tables_gamma(capsys):
    code, out, _ = run(["tables", "gamma"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,0-0,0-1,0-2,0-3,0-4,0-6,1-0,1-2,1-5,2-2,3-3,6-0"
    assert len(lines) == 6
    assert lines[1] == "0,5,6,0,4,0,1,0,0,0,0,0,0"
    assert lines[5] == "4,0,0,0,0,0,5,0,0,6,0,4,1"


def test_tables_mu(capsys):
    code, out, _ = run(["tables", "mu"], capsys)
    assert code == 0
    want = "\n".join(",".join(str(x) for x in row) for row in MU_GRID) + "\n"
    assert out == want


def test_tables_iso(capsys):
    code, out, _ = run(["tables", "iso"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code,iota,delta,t,sigma,downsets,inner"
    assert len(lines) == 35
    want = ["%s,%d,%d,%d,%d,%d,%d" % row for row in CATALOGUE]
    assert lines[1:] == want


def test_tables_gamma_json(capsys):
    code, out, _ = run(["tables", "gamma", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"columns": [list(col) for col in GAMMA_COLUMNS],
                               "rows": [list(row) for row in GAMMA_ROWS]}


def test_tables_mu_json(capsys):
    code, out, _ = run(["tables", "mu", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [list(row) for row in MU_GRID]


@pytest.mark.parametrize("which", ["nu", "gamma", "mu"])
def test_tables_json_bytes(which, capsys):
    'one line with json.dumps defaults: ", " and ": " separators, no indent'
    want = {
        "nu": "%s" % list(NU_ROW),
        "gamma": '{"columns": %s, "rows": %s}' % ([list(col) for col in GAMMA_COLUMNS],
                                                   [list(row) for row in GAMMA_ROWS]),
        "mu": "%s" % [list(row) for row in MU_GRID],
    }[which]
    assert run(["tables", which, "--format", "json"], capsys) == (0, want + "\n", "")


def test_tables_iso_json(capsys):
    'one object per catalogue row, its keys in printed order'
    code, out, _ = run(["tables", "iso", "--format", "json"], capsys)
    assert code == 0
    keys = ("code", "iota", "delta", "t", "sigma", "downsets_below", "inner_sum")
    assert [list(row.items()) for row in json.loads(out)] == [list(zip(keys, row)) for row in CATALOGUE]


# -- verify ------------------------------------------------------------------------


def test_verify_strict_passes(capsys):
    code, out, _ = run(["verify", "--strict"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "12 checks, 0 failed"
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_verify_strict_builds_the_catalogue_once(capsys, monkeypatch):
    'the catalogue and class-constancy checks share one catalogue build'
    calls = []
    build = downsets.isoclasses.representation_system

    def counted(q23):
        calls.append(q23)
        return build(q23)

    monkeypatch.setattr(downsets.isoclasses, "representation_system", counted)
    code, out, _ = run(["verify", "--strict"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "12 checks, 0 failed"
    assert len(calls) == 1


def test_a_failed_catalogue_build_fails_each_check_that_shares_it(capsys, monkeypatch):
    def broken(q23):
        raise StructureError("no catalogue")

    run_checks = cli._run_checks
    shared = ("catalogue", "class-constancy")
    monkeypatch.setattr(downsets.isoclasses, "representation_system", broken)
    monkeypatch.setattr(cli, "_run_checks", lambda strict: [c for c in run_checks(strict) if c[0] in shared])
    code, out, _ = run(["verify", "--strict"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL catalogue: no catalogue", "FAIL class-constancy: no catalogue", "2 checks, 2 failed"]


def test_strict_verify_finds_the_pairs_of_q23_once(capsys, monkeypatch):
    'lemma2 finds the contained pairs of q23; the product identity counts chain(2) x q23 directly'
    from downsets import engine, methods

    pairs = engine._containment_pairs
    found = []

    def counted(p):
        found.append(p)
        return pairs(p)

    monkeypatch.setattr(engine, "_containment_pairs", counted)
    monkeypatch.setattr(methods, "_containment_pairs", counted)
    code, out, _ = run(["verify", "--strict"], capsys)
    assert code == 0, out
    q23 = methods.build_qsplit().q23
    assert sum(p == q23 for p in found) == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_takes_no_format(capsys, fmt):
    'verify prints its text report only, so a --format is a usage error'
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--format", fmt])
    assert info.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_verify_reports_an_injected_fault(capsys, monkeypatch):
    monkeypatch.setattr(cli, "NU_ROW", (1,) * 11)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL nu:") for line in lines)
    assert lines[-1] == "10 checks, 1 failed"


def test_verify_fails_under_python_O():
    'the checks raise explicitly, so -O, which strips assert statements, keeps them'
    script = (
        "import sys\n"
        "from downsets import cli\n"
        "if __debug__:\n"
        "    sys.exit('asserts are live: not running under -O')\n"
        "cli.NU_ROW = (1,) * 11\n"
        "run_checks = cli._run_checks\n"
        "cli._run_checks = lambda strict: [c for c in run_checks(strict) if c[0] == 'nu']\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("FAIL nu:")
    assert lines[-1] == "1 checks, 1 failed"


def test_package_has_no_assert_statements():
    'python -O strips assert statements, so no check in the package may be one'
    src = os.path.dirname(downsets.__file__)
    modules = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert "cli.py" in modules and "methods.py" in modules
    found = []
    for name in modules:
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_errors_defines_one_type_per_failure_kind():
    'seven exception types, each a DownsetError; the folded-in ones are gone from the package'
    from downsets import errors

    kinds = {name: value for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    assert sorted(kinds) == ["CapacityError", "CycleError", "DomainError", "DownsetError",
                             "NotADownSet", "ParseError", "StructureError"]
    assert all(issubclass(kind, errors.DownsetError) for kind in kinds.values())
    for name in ("ShapeError", "MissingInput", "TraceMismatch"):
        assert not hasattr(downsets, name) and name not in downsets.__all__


def test_package_modules_use_every_import():
    'a name imported by a module other than __init__.py is used in it, so deletions leave no dead import'
    src = os.path.dirname(downsets.__file__)
    modules = sorted(name for name in os.listdir(src) if name.endswith(".py") and name != "__init__.py")
    assert "engine.py" in modules and "methods.py" in modules
    unused = []
    for name in modules:
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append("%s:%d %s" % (name, node.lineno, bound))
    assert unused == []


# -- output determinism --------------------------------------------------------------


def test_jobs_flag_never_changes_output(middle5_file, capsys):
    runs = []
    for jobs in ("1", "4"):
        code, out, _ = run(
            ["count", middle5_file, "--pivot", upper_level_pivot(), "--jobs", jobs], capsys)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    first = run(["tables", "gamma", "--jobs", "1"], capsys)
    second = run(["tables", "gamma", "--jobs", "3"], capsys)
    assert first == second


def test_console_entry_point(diamond_file):
    proc = subprocess.run(
        [sys.executable, "-m", "downsets", "count", diamond_file],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


# -- start-up ----------------------------------------------------------------------


def child_lines(script, *args):
    'stdout lines of script run in a fresh interpreter'
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_count_and_standard_load_only_the_modules_they_use(diamond_file):
    'count needs no route, catalogue, numpy, dataclasses or json; dedekind --method standard no route, numpy or json'
    script = (
        "import sys\n"
        "from downsets import cli\n"
        "cli.main(['count', sys.argv[1]])\n"
        "print(' '.join(sys.modules))\n"
        "cli.main(['dedekind', '7', '--method', 'standard'])\n"
        "print(' '.join(sys.modules))\n"
    )
    bare = set(child_lines("import sys; print(' '.join(sys.modules))")[0].split())
    count_out, after_count, standard_out, _, after_standard = child_lines(script, diamond_file)
    assert (count_out, standard_out) == ("6", "2414682040998")
    after_count = set(after_count.split()) - bare
    after_standard = set(after_standard.split()) - bare
    assert {"downsets.cli", "downsets.engine"} <= after_count
    assert after_count.isdisjoint({"downsets.methods", "downsets.isoclasses", "numpy", "dataclasses", "json"})
    assert after_standard.isdisjoint({"downsets.methods", "downsets.isoclasses", "numpy", "json"})


def test_mu_and_theorem2_routes_load_no_numpy():
    'the mu sweep is bit-parallel over Python ints, and theorem2 at n = 6 runs it'
    script = (
        "import sys\n"
        "from downsets import cli\n"
        "cli.main(['dedekind', '6', '--method', 'mu'])\n"
        "cli.main(['tables', 'mu'])\n"
        "cli.main(['dedekind', '6', '--method', 'theorem2'])\n"
        "print('numpy' in sys.modules)\n"
    )
    lines = child_lines(script)
    assert lines[:2] == ["7828354", "evaluations: 1048576"]
    assert lines[2:18] == [",".join(str(x) for x in row) for row in MU_GRID]
    assert lines[18:] == ["7828354", "False"]


def test_lemma2_route_loads_no_numpy():
    'the zeta transform over contained pairs runs on Python ints'
    script = (
        "import sys\n"
        "from downsets import cli\n"
        "cli.main(['dedekind', '6', '--method', 'lemma2'])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert child_lines(script) == ["7828354", "evaluations: 3933651", "False"]


def test_standard_runs_without_numpy():
    'numpy unimportable: the pairwise summation runs on Python ints'
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from downsets import cli\n"
        "print(cli.main(['dedekind', '7', '--method', 'standard']))\n"
    )
    assert child_lines(script) == ["2414682040998", "evaluations: 28739571", "0"]


def test_routes_other_than_iso_load_no_catalogue():
    'isoclasses loads for the iso routes only'
    script = (
        "import sys\n"
        "from downsets import cli\n"
        "cli.main(['dedekind', '5', '--method', 'nu'])\n"
        "cli.main(['dedekind', '6', '--method', 'mu'])\n"
        "print('downsets.isoclasses' in sys.modules)\n"
        "cli.main(['dedekind', '5', '--method', 'iso'])\n"
        "print('downsets.isoclasses' in sys.modules)\n"
    )
    assert child_lines(script) == [
        "7581", "evaluations: 1024", "7828354", "evaluations: 1048576", "False",
        "7581", "evaluations: 34", "True"]


def test_verify_checks_run_when_called_directly_in_a_fresh_interpreter():
    'a check finds its route through its module, with no command run before it'
    script = (
        "from downsets import cli\n"
        "cli._check_nu()\n"
        "cli._check_ladder()\n"
        "cli._check_gamma_uniformity()\n"
        "print('ok')\n"
    )
    assert child_lines(script) == ["ok"]


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    script = (
        "import sys, downsets\n"
        "print('downsets.methods' in sys.modules, 'downsets.isoclasses' in sys.modules)\n"
        "print(' '.join(sorted(set(downsets.__all__) - set(dir(downsets)))))\n"
        "print(' '.join(n for n in downsets.__all__ if getattr(downsets, n, None) is None))\n"
        "print(downsets.bmm5_nu is downsets.methods.bmm5_nu,\n"
        "      downsets.type_code is downsets.isoclasses.type_code)\n"
    )
    assert child_lines(script) == ["False False", "", "", "True True"]
    star = child_lines(
        "import downsets\n"
        "names = {}\n"
        "exec('from downsets import *', names)\n"
        "print(' '.join(sorted(set(downsets.__all__) - set(names))))\n"
        "print(names['middle_counts'] is downsets.methods.middle_counts)\n"
    )
    assert star == ["", "True"]


@pytest.mark.parametrize("first", ["downsets.methods", "downsets.isoclasses", "downsets.cli"])
def test_boolean_stays_the_function_whatever_loads_first(first):
    'the function boolean shares its name with its submodule, which must not rebind it'
    script = (
        "import %s\n"
        "import downsets\n"
        "downsets.methods\n"
        "print(type(downsets.boolean(3)).__name__)\n" % first
    )
    assert child_lines(script) == ["BooleanContext"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_dot_and_a_format_are_a_usage_error(diamond_file, capsys, fmt):
    'the DOT view has one format, so a csv or json request is refused rather than ignored'
    with pytest.raises(SystemExit) as info:
        cli.main(["count", diamond_file, "--dot", "--format", fmt])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "downsets count: error: argument --format: not allowed with argument --dot"


def test_count_dot_takes_the_text_format(diamond_file, capsys):
    'text is the default format, so naming it with --dot prints the same graph'
    plain = run(["count", diamond_file, "--dot"], capsys)
    assert plain[0] == 0
    assert run(["count", diamond_file, "--dot", "--format", "text"], capsys) == plain
