#!/usr/bin/env python3
"""Repository benchmark entry point (see uafbench/README.md).

    python3 uafbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

Builds the checker and the benchmark program from source into
.bench_build/uafbench (RelWithDebInfo, the tier-1 build type), runs one
workload and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. The full record, with
provenance (commit, source digest, build type, compiler, nproc, sanitizer
state, seeds), is written to .bench_out/. Exits 0 when every correctness
gate passed, non-zero otherwise; build failures and refused builds print
no result.

    python3 uafbench/run.py --test

builds and runs the benchmark's own helper tests.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "uafbench"
BUILD_DIR = ROOT / ".bench_build" / "uafbench"
OUT_DIR = ROOT / ".bench_out"  # uafbench writes spans here too
# Compiler and benchmark temporaries stay inside the checkout.
TMP_DIR = ROOT / ".bench_tmp" / "tmp"
WORKLOADS = ("table1", "begin_heavy", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"uafbench: {message}", file=sys.stderr, flush=True)


def child_env():
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(TMP_DIR))


def build():
    """Configures (once) and builds uafbench, the daemon and the tests."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"checker sources not found under {ROOT}/src")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "uafbench", "chpl-uaf-serve", "uafbench_helpers_test"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, env=child_env(),
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """sha256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "uafbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unknown"


def run_workload(args):
    """Runs one workload; returns (exit code, parsed record or None)."""
    cmd = [str(BUILD_DIR / "uafbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", str(BUILD_DIR / "cuaf" / "tools" / "chpl-uaf-serve")]
    # Its own process group, so a timeout also takes down the daemon it
    # spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"uafbench exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("uafbench printed no record")
        return proc.returncode or 1, None


def run_tests():
    done = subprocess.run([str(BUILD_DIR / "uafbench_helpers_test")], cwd=ROOT,
                          env=child_env())
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.test:
        return run_tests()

    code, record = run_workload(args)
    if record is None:
        return code if code != 0 else 1
    record["provenance"]["commit"] = commit()
    record["provenance"]["source_sha256"] = source_digest()
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    log("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {key: record[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
