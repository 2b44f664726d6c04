"""Benchmark of the `downsets` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; nothing needs installing.  The
workload's input files are generated from the seed into a temporary
directory inside the checkout, then its commands run as `python -m
downsets ...` subprocesses, one at a time (a closed loop with one client),
pass after pass until a further pass would end further from S seconds
than stopping now.  Every
command's stdout and exit code is checked against its oracle; a mismatch
counts as a failed operation, and a wrong value printed also makes the run
incorrect.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median over
passes of the pass wall time and of the largest child max RSS (each child's
own rusage from wait4), and the median time to import `downsets.cli` in a
fresh interpreter, sampled between the passes.  --trace 1 runs one plain pass and one pass through
perfbench/tracer.py and reports the per-layer metrics; traced stdout must
match plain stdout byte for byte.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    stdout: bytes
    exit_code: int
    stderr_tail: str


def run_child(args, scratch):
    'one interpreter run; wall time from spawn to reap, RSS from its own rusage'
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return Outcome(wall, usage.ru_maxrss / 1024, out_path.read_bytes(), proc.returncode,
                   stderr[-1] if stderr else "")


@dataclass
class Pass:
    wall_s: float
    outcomes: list


def run_pass(commands, scratch, prefix):
    start = time.perf_counter()
    outcomes = [run_child(prefix(k) + list(c.argv), scratch) for k, c in enumerate(commands)]
    return Pass(time.perf_counter() - start, outcomes)


class Ledger:
    'operations attempted and failed, and whether any printed a wrong value'

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.notes = {}

    def check(self, command, outcome):
        self.attempted += 1
        if outcome.stdout == command.stdout and outcome.exit_code == command.exit_code:
            return
        self.failed += 1
        if outcome.stdout and outcome.stdout != command.stdout:
            self.correct = False
        note = "mismatch: %s -> exit %d, stdout %r, stderr %r" % (
            " ".join(command.argv), outcome.exit_code, outcome.stdout[:80], outcome.stderr_tail[:120])
        self.notes[note] = self.notes.get(note, 0) + 1

    def fail(self, note):
        self.correct = False
        self.notes[note] = self.notes.get(note, 0) + 1


def plain(_):
    return ["-m", "downsets"]


def time_import(scratch):
    'seconds to start an interpreter that only imports downsets.cli'
    outcome = run_child(["-c", "import downsets.cli"], scratch)
    if outcome.exit_code != 0 or outcome.stdout:
        raise SystemExit("importing downsets.cli failed with exit code %d" % outcome.exit_code)
    return outcome.wall_s


def end_to_end(commands, seconds, scratch, ledger):
    time_import(scratch)  # fills the bytecode cache
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        # import timings are spread over the run, like the passes they sit between
        setup += [time_import(scratch) for _ in range(SETUP_SAMPLES_PER_PASS)]
        done = run_pass(commands, scratch, plain)
        passes.append(done)
        for command, outcome in zip(commands, done.outcomes):
            ledger.check(command, outcome)
        # stop at the pass count that ends closest to the time asked for
        if time.perf_counter() - start + done.wall_s / 2 > seconds:
            break
    print("passes %d, pass walls %s s" % (len(passes), " ".join("%.3f" % p.wall_s for p in passes)))
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in passes),
        "setup_s": statistics.median(setup),
    }


def per_layer(workload, commands, scratch, ledger):
    reference = run_pass(commands, scratch, plain)
    stats_files = [scratch / ("stats-%d.json" % k) for k in range(len(commands))]
    traced = run_pass(commands, scratch, lambda k: [str(HERE / "tracer.py"), str(stats_files[k])])
    for command, ref, got in zip(commands, reference.outcomes, traced.outcomes):
        ledger.check(command, ref)
        ledger.check(command, got)
        if (ref.stdout, ref.exit_code) != (got.stdout, got.exit_code):
            ledger.fail("traced run changed the output of: %s" % " ".join(command.argv))
    calls, self_s, tally, missing = {}, {}, {}, set()
    for path in stats_files:
        stats = json.loads(path.read_text(encoding="utf-8"))
        for total, part in ((calls, stats["calls"]), (self_s, stats["self_s"]), (tally, stats["tally"])):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        missing.update(stats["missing"])
    for key in sorted(missing):
        ledger.notes["not traced, the program no longer defines it: %s" % key] = 1
    for key in tracer.INTENDED[workload]:
        if not calls.get(key) and key not in missing:
            ledger.fail("layer %s recorded no calls on %s" % (key, workload))
    metrics = {"engine.pivots": calls.get("engine.pivot", 0)}
    for key, _, _, _, tally_name in tracer.TARGETS:
        metrics[key + ".calls"] = calls.get(key, 0)
        metrics[key + ".self_s"] = self_s.get(key, 0.0)
        if tally_name:
            name = "%s.%s" % (key, tally_name)
            metrics[name] = tally.get(name, 0)
    sys.path.insert(0, str(ROOT / "src"))  # the kernel timing runs in this process
    metrics["poset.popcount.ns"], metrics["poset.bits.ns_per_bit"], wrong = tracer.kernel_timings()
    for note in wrong:
        ledger.fail(note)
    metrics["trace.overhead_s"] = traced.wall_s - reference.wall_s
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "downsets" / "cli.py", ROOT / "tests" / "frozen.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write("not a downsets checkout, missing: %s\n" % ", ".join(missing))
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        commands = workloads.build(args.workload, args.seed, workloads.load_frozen(ROOT), scratch)
        print("workload %s, seed %d, %d commands per pass, trace %d" % (
            args.workload, args.seed, len(commands), args.trace))
        if args.trace:
            values = per_layer(args.workload, commands, scratch, ledger)
            listed = manifest["per_layer"]
        else:
            values = end_to_end(commands, args.seconds, scratch, ledger)
            listed = manifest["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for note, times in ledger.notes.items():
        print("%s (x%d)" % (note, times))
    for name, metric in metrics.items():
        print("%-36s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-36s %.6g (%d of %d commands)" % (
        "fail_ratio", ledger.failed / ledger.attempted, ledger.failed, ledger.attempted))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
