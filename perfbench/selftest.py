"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seed N]

Runs every workload once traced and once untraced, briefly.  It fails
unless each run reports exactly the metrics BENCHMARK.json lists and no
command printed a wrong value.  The traced runs also fail unless traced stdout
matched plain stdout byte for byte, every binding of a traced function was
rebound, and each layer a workload exists to exercise recorded calls there
(tracer.INTENDED).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((1, "per_layer"), (0, "end_to_end")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            run = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            label = "%s trace %d" % (workload, trace)
            if run.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, run.returncode, run.stderr))
                continue
            lines = run.stdout.splitlines()
            result = json.loads(lines[-1])
            wanted = [m["name"] for m in manifest[section]]
            if list(result["metrics"]) != wanted:
                problems.append("%s: metrics %s, expected %s" % (label, list(result["metrics"]), wanted))
            if not result["correct"]:
                problems.append("%s: incorrect\n%s" % (label, "\n".join(lines[:-1])))
            print("%-26s correct=%s failed %d of %d" % (
                label, result["correct"], result["failed"], result["attempted"]), flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
