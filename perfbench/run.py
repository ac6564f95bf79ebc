#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload large-map --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library and the benchmark binary into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild only what changed. The last line of standard output is
the result object; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-batch", "large-map", "serve-durable")
# A run that has not finished by then is stuck; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the benchmark binary; exits 1 with the log tail on failure."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4", "--target", "perfbench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                fail("perfbench build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """The last output line must be the result object the benchmark promises."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        raise ValueError("metrics differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness arithmetic self-tests and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    # The program's own switches stay at their shipped defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MIMDMAP_")}
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"], cwd=ROOT, env=env).returncode)

    work_dir = build_dir / "run" / args.workload
    # Relative to the checkout root, so the daemon's socket path stays short.
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        sys.stdout.write(partial.decode(errors="replace") if isinstance(partial, bytes) else partial)
        fail("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench: benchmark binary exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1], args.trace)
    except ValueError as e:
        print("\n".join(lines[:-1]))
        fail("perfbench: malformed result line: %s" % e)
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
