#!/usr/bin/env python3
"""Smoke test of the served-path benchmark. Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload, at a tiny size, it checks that run.py prints a result
line with exactly the keys correct/attempted/failed/metrics, that every
metric BENCHMARK.json names is present with its unit (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1), and that every answer
was correct. It then checks that a deliberately corrupted answer index is
caught (exit 1, correct false), and that run.py fails without printing a
result in a directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "0.3", "--pool", "256"]


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = ["python3", os.path.join(os.path.relpath(HERE, ROOT), "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd + TINY + list(extra), cwd=cwd, text=True,
                          stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            before = len(problems)
            rc, res = run(w["name"], trace)
            tag = "%s --trace %d" % (w["name"], trace)
            if rc != 0 or res is None:
                problems.append("%s: exit %d" % (tag, rc))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: not correct" % tag)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (tag, sorted(set(got.items())
                                               ^ set(expected[trace].items()))))
            print(("ok " if len(problems) == before else "FAIL ") + tag,
                  flush=True)

    rc, res = run(spec["workloads"][0]["name"], 0, ["--corrupt-at", "5"])
    if rc != 1 or res is None or res["correct"] or res["failed"] < 1:
        problems.append("corrupted answer not caught: exit %d, %s" % (rc, res))
    else:
        print("ok corrupted answer caught")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r"
                        % (proc.returncode, proc.stdout[-200:]))
    else:
        print("ok bare directory refused")

    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
