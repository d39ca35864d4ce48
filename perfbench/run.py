#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <serve_point|bank_hot|store_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the engine sources under src/ and the benchmark binary in
perfbench/ into .bench_build/ at the checkout root (incremental after the
first run), runs the workload with $TMPDIR pointed inside .bench_build/,
and prints:

  * the binary's per-round lines (prefixed "# "),
  * one line {"fingerprint": {...}} describing the host and the build,
  * as the last line, the result {"correct", "attempted", "failed",
    "metrics"}; the metric names and units are checked against
    BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).

Exit status: 0 on success, 1 when a correctness audit failed, 2 on bad
arguments, 3 when the build, the run or the result's shape failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
TMP = BUILD / "tmp"
TRACES = BUILD / "traces"
BUILD_TYPE = "Release"
WORKLOADS = ("serve_point", "bank_hot", "store_churn")
# The binary's own run time is bounded by its rounds; this only guards
# against a hang so the benchmark always ends within its time limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    """Configures and builds the benchmark binary. Returns its path."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", str(CMAKE_DIR), "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, env=env, check=True)
    return CMAKE_DIR / "ccr_perfbench"


def stop_group(proc):
    """Kills `proc`'s process group and waits until every member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_sha():
    """sha256 over the engine and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "tmpdir": str(TMP.relative_to(ROOT)),
        "tmpdir_fs": fs_type(TMP.resolve()),
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
    }


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_shape(result, trace):
    """Empty string when `result` has the expected shape, else why not."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int):
        return "failed must be an integer"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    # Scratch files of earlier, interrupted runs go first.
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    TRACES.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(TRACES / f"{args.workload}.tsv")]
    # Its own process group: the binary forks one process per round, and a
    # timeout must stop those too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        stop_group(proc)
        return 3
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"{args.workload} exited with {proc.returncode}")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unreadable result line: {lines[-1]!r}")
        return 3
    problem = check_shape(result, args.trace)
    if problem:
        log(f"malformed result: {problem}")
        return 3
    print(json.dumps({"fingerprint": fingerprint()}))
    print(json.dumps(result), flush=True)
    if not result["correct"] or proc.returncode != 0:
        log(f"{args.workload}: correctness audit failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
