#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark (see README.md).

    python3 perfbench/selftest.py

Run from the repository root; finishes in seconds once the harness is
built.  It checks that:
  * every workload runs, untraced and traced, and passes its gates;
  * each run prints every metric BENCHMARK.json names, with its unit;
  * a deliberately corrupted expected checksum makes a run fail;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py
    exit non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--scale", "0.05"]


def run(workload, trace, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--trace", str(trace),
           *TINY, *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, lines, err = run(w["name"], trace)
            if code != 0 or not lines:
                fail(f"{w['name']} trace={trace} exited {code}:\n{err[-2000:]}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{w['name']} trace={trace}: gates failed:\n{err[-2000:]}")
            metrics = result["metrics"]
            for m in want[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    fail(f"{w['name']} trace={trace}: {m['name']} missing")
                if got["unit"] != m["unit"]:
                    fail(f"{w['name']}: {m['name']} unit {got['unit']} "
                         f"!= {m['unit']}")
            extra = set(metrics) - {m["name"] for m in want[trace]}
            if extra:
                fail(f"{w['name']} trace={trace}: unlisted metrics {extra}")
            print(f"selftest: ok {w['name']} trace={trace}")

    code, lines, _ = run("serve-mris-overload", 0,
                         "--corrupt-expected-checksum")
    if code == 0 or json.loads(lines[-1])["correct"]:
        fail("a corrupted expected checksum did not fail the run")
    print("selftest: ok corrupted checksum fails the run")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        code, lines, _ = run("batch-lineup", 0, cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
        if code == 0 or any(l.startswith('{"correct"') for l in lines):
            fail("run.py without the repository sources did not fail cleanly")
    finally:
        shutil.rmtree(bare)
    print("selftest: ok bare benchmark directory is refused")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
