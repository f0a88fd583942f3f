#!/usr/bin/env python3
"""Served-path benchmark: builds the spheredec libraries and the perfbench
binaries from source, drives one workload, and prints one JSON result line.

    python3 perfbench/run.py --workload iid_10x10 --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run.
--trace 1 prints the per-layer metrics: an untraced run for half the time,
          then the traced binary for the other half; the difference between
          the two is the tracing overhead.

Run from the repository root. Everything the benchmark builds or writes
lives under .bench_build/. Exit status: 0 when every answer matched its
reference decode, 1 on a mismatch, 2 on bad arguments or a missing
program, 3 when the build fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")

# Each binary run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json, the single
    list of what each trace level reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no spheredec sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(3, "build failed; full log in " + log_path)


def run_binary(name, mode, args, seconds, extra):
    """Runs one perfbench binary from the repository root and returns its
    exit code and parsed result line."""
    os.makedirs(os.path.join(OUT, "run"), exist_ok=True)
    sock = os.path.join(".bench_build", "run", "pb-%d.sock" % os.getpid())
    cmd = [os.path.join(BUILD, name), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--socket", sock] + extra
    if args.pool:
        cmd += ["--pool", str(args.pool)]
    if args.corrupt_at:
        cmd += ["--corrupt-at", str(args.corrupt_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(1, "%s did not finish in %d s" % (name, RUN_TIMEOUT_S))
    finally:
        if os.path.exists(os.path.join(ROOT, sock)):
            os.unlink(os.path.join(ROOT, sock))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(2, "%s exited with %d" % (name, proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, compiler, host):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_digest": source_digest(),
            "compiler": compiler, "cpu": cpu, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "host": host}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", type=int, default=0,
                    help="distinct frames per run (0 = the workload's own)")
    ap.add_argument("--corrupt-at", type=int, default=0,
                    help="corrupt the N-th answer before checking it")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")
    build()

    if args.trace == 0:
        rc, res = run_binary("perfbench", "e2e", args, args.seconds, [])
        values = res["metrics"]
        units = metric_units("end_to_end")
        host = res["info"]
        attempted, failed = res["attempted"], res["failed"]
    else:
        half = args.seconds / 2
        rc0, plain = run_binary("perfbench", "e2e", args, half,
                                ["--setup-reps", "1"])
        # One span file per workload (tens of MB), replaced by each run.
        trace_out = os.path.join(".bench_build",
                                 "perfbench-trace-%s.json" % args.workload)
        rc1, res = run_binary("perfbench_traced", "layers", args, half,
                              ["--trace-out", trace_out])
        rc = max(rc0, rc1)
        values = dict(res["metrics"])
        values["trace.overhead_latency_us"] = (
            values["client.latency_p50_us"] - plain["metrics"]["latency_p50_us"])
        values["trace.overhead_cpu_us"] = (
            values["client.cpu_us_per_frame"]
            - plain["metrics"]["cpu_us_per_frame"])
        units = metric_units("per_layer")
        host = {k: v for k, v in values.items() if k.startswith("host.")}
        attempted = plain["attempted"] + res["attempted"]
        failed = plain["failed"] + res["failed"]

    missing = [k for k in units if k not in values]
    if missing:
        fail(2, "binary did not report " + ", ".join(missing))
    prov = provenance(args, res.get("compiler", "unknown"), host)
    correct = rc == 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "result": result,
                   "all_values": values}, f, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
