#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the benchmark (and the repository's
library, from source) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, checks its outputs, and prints
the report. The last line of standard output is the result as one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A full record of the run (result, failed checks, extra figures and the
environment: nproc, CPU model, compiler, build type and flags, git commit
and dirty flag) is written under the build directory's results/.

Exit status: 0 when every check passed, 1 when a check failed or the
program under test did not run, 2 when the repository is not there to
build.
"""

import argparse
import fcntl
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("sim-scale", "sim-paper-adaptive", "wallclock-inmemory",
             "wallclock-udp")
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out, targets):
    """Configures once, then builds; both are no-ops when up to date."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                        *targets],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def cmake_cache(out):
    cache = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=20).stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def environment(out):
    cache = cmake_cache(out)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    cpu_model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        commit = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"]),
        "build_type": build_type,
        "cxx_flags": " ".join(
            f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
            if f),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()):
        log(f"perfbench: no repository to build at {ROOT} "
            "(CMakeLists.txt and src/ are missing)")
        return 2

    out = build_dir()
    try:
        build(out, ["agb_perfbench", "perfbench_selftest"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.self_test:
        return subprocess.run([str(out / "perfbench_selftest")]).returncode

    results = out / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(out / "agb_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"perfbench: {args.workload} exited {proc.returncode} "
            "without a result")
        return 1
    for line in lines[:-1]:
        print(line)

    expected = declared_metrics(args.trace)
    if expected is not None and expected != set(result["metrics"]):
        result["correct"] = False
        result["failures"].append(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - set(result['metrics']))}, extra "
            f"{sorted(set(result['metrics']) - expected)}")
        print(f"CHECK FAILED     : {result['failures'][-1]}")

    env = environment(out)
    record = {"args": vars(args), "environment": env, **result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("environment      : " + json.dumps(env, sort_keys=True))
    print(f"record           : {results / (stem + '.json')}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
