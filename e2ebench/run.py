#!/usr/bin/env python3
"""Build and run the wfire end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a wfire checkout. The first call configures and builds
the benchmark package (e2ebench/CMakeLists.txt, which builds the wfire
library from ../src in Release) into .bench_build, or into $CARGO_TARGET_DIR
when that is set; later calls only re-check the build. The benchmark's last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; build output and progress go to stderr. Traced runs (--trace 1)
also write the spans as Chrome trace-event JSON under .bench_trace/.

Exits non-zero without printing a result when the sources are missing, the
build fails, the benchmark fails, a run exceeds its time limit, or the
result's metrics differ from those BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("assimilate", "serve_fleet", "risk_products", "coupled_forecast")
RUN_TIMEOUT_S = 170  # a run must end within 180 s once built


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, env):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def manifest_mismatch(result, traced):
    """Names the first metric of BENCHMARK.json the result lacks or gives in
    another unit, or one the result has that the manifest does not list."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    for name, unit in want.items():
        if got.get(name) != unit:
            return f"{name} ({unit}) missing or in another unit"
    extra = sorted(set(got) - set(want))
    return f"{extra[0]} is not in BENCHMARK.json" if extra else None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no wfire sources under {ROOT}/src")
    tmp = os.path.join(build_dir, "tmp")  # keep compiler temporaries inside
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                "wfire_e2ebench", "e2ebench_selftest"], env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's own code")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "e2ebench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "wfire_e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_trace",
           "--work-dir", os.path.join(build_dir, "work")]
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"),
               E2E_SPAWN_MONOTONIC_NS=str(time.monotonic_ns()))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return 3
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"{args.workload}: benchmark exited with code {proc.returncode}")
        return proc.returncode or 4
    mismatch = manifest_mismatch(json.loads(lines[-1]), args.trace == 1)
    if mismatch:
        log(f"{args.workload}: result does not match BENCHMARK.json: {mismatch}")
        return 5
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
