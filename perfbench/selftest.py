#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at toy size.

Run from the root of a checkout:  python3 perfbench/selftest.py

For every workload it runs `perfbench/run.py --toy` once with `--trace 0`
and once with `--trace 1`, and checks that the last line is the result
object, that the oracle passed (`correct`, no failures), and that every
metric BENCHMARK.json names for that mode is reported with its unit and
nothing else. From the traced runs it checks that each mechanism shows on
the workload built for it and not on its bypass: pruning, eviction, the
outcome cache, and labels idle while the assignment works on `pair-cold`.
It then checks that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def check(workload, trace, spec):
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: oracle or checks failed: {proc.stdout[-1500:]}")
    want = {m["name"]: m["unit"] for m in spec[SECTIONS[trace]]}
    got = result.get("metrics", {})
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"{where}: missing {name}")
        elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} reads {m}, want unit {unit}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{where}: unexpected metric {name}")
    return problems, {name: m.get("value") for name, m in got.items()}


def check_mechanisms(traced):
    """The mechanism/bypass pairs, from the traced runs' metrics."""
    def value(workload, name):
        return traced.get(workload, {}).get(name, float("nan"))
    expectations = [
        ("pruning on serve-family, not serve-mixed",
         value("serve-family", "catalog.prune_frac") > value("serve-mixed", "catalog.prune_frac")),
        ("evictions only on serve-mixed",
         value("serve-mixed", "catalog.evictions") > 0
         and value("serve-family", "catalog.evictions") == 0
         and value("pair-cold", "catalog.evictions") == 0),
        ("labels idle and assignment working on pair-cold",
         value("pair-cold", "labels.cells") == 0 and value("pair-cold", "assignment.ms") > 0),
        ("outcome-cache hits only on serve-family",
         value("serve-family", "core.outcome_cache_hits") > 0
         and value("serve-mixed", "core.outcome_cache_hits") == 0
         and value("pair-cold", "core.outcome_cache_hits") == 0),
    ]
    return [f"mechanism not visible: {what}" for what, ok in expectations if not ok]


def check_bare():
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        proc = run(bare, "pair-cold", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found, values = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
            if trace:
                traced[workload] = values
    found = check_mechanisms(traced)
    print(f"mechanism/bypass pairs visible: {'ok' if not found else 'FAILED'}", flush=True)
    problems += found
    found = check_bare()
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}", flush=True)
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
