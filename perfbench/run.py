#!/usr/bin/env python3
"""perfbench: one benchmark for `ems match` and `ems serve`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <pair-cold|serve-family|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1> [--toy]

The script builds the `ems` and `trace_check` binaries and the in-process
helper (`perfbench/tool`), generates the workload's inputs from the seed in
a fresh work directory, and then either

* `--trace 0`: drives the real binaries for `--seconds` and reports the
  end-to-end metrics, every answer checked by the output oracle, or
* `--trace 1`: drives the workload's traced requests through the binaries
  and then in-process through each layer's public functions, and reports
  the per-layer metrics. The trace is written as `ems-trace/1` JSONL and
  must pass `ems report` and `trace_check`.

Human-readable lines go to stdout first; the last line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 when a
result was printed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pair-cold", "serve-family", "serve-mixed")
# Per-request limit: a stalled request fails instead of hanging the run.
REQUEST_TIMEOUT_S = 60.0
SERVE_READY_TIMEOUT_S = 120.0
# `setup_s` is the median of this many set-ups.
SETUP_REPS = 9
# `pair-cold` times this many `ems match` runs on a minimal pair.
TINY_REPS = 21
# `admit.p50_ms` (traced runs) is the median over this many rounds of
# `ems catalog add`, each into a fresh store: every reference (serve) or
# the first PAIR_ADMITS request logs (`pair-cold`).
ADMIT_ROUNDS = 5
PAIR_ADMITS = 5
# `peak_rss_mb` is taken once this many requests are answered (the serve
# process's VmHWM, or the largest `ems match`), so it does not grow with
# throughput.
RSS_AFTER = 10
# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(msg):
    print(msg, flush=True)


def run_quiet(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return proc.stdout


def build(root):
    """Builds the binaries; returns their paths."""
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"{need} not found: run from the root of an ems checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The workspace root package does not build the CLI: name it.
    run_quiet(["cargo", "build", "--release", "--offline", "-p", "ems-cli", "-p", "ems-obs",
               "--bins"], cwd=root, env=env)
    run_quiet(["cargo", "build", "--release", "--offline", "--manifest-path",
               os.path.join(HERE, "tool", "Cargo.toml")], cwd=root, env=env)
    bins = {name: os.path.join(target, "release", name)
            for name in ("ems", "trace_check", "emsbench")}
    for path in bins.values():
        if not os.path.exists(path):
            raise BenchError(f"build produced no {path}")
    return bins


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, ok, message=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def percentile_tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND+1)-th largest sample. Returns (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * idx / (n - 1), n


def timed_match(ems, a, b, timeout):
    """One `ems match A B --quiet`: (code, stdout, latency_ms, peak_rss_mb),
    the peak RSS from wait4. A stalled process is killed (code -1)."""
    start = time.perf_counter()
    proc = subprocess.Popen([ems, "match", a, b, "--quiet"], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    done = {}

    def reap():
        done["out"] = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
        done.update(end=time.perf_counter(), status=status, rusage=rusage)

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(timeout)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(done["status"])
    if "end" not in done or done["end"] - start > timeout:
        return -1, "", timeout * 1e3, 0.0
    return (proc.returncode, done["out"], (done["end"] - start) * 1e3,
            done["rusage"].ru_maxrss / 1024.0)


class Serve:
    """A running `ems serve` with line readers on stdout and stderr."""

    def __init__(self, ems, store, manifest, workers):
        cmd = [ems, "serve", "--store", store, "--alpha", str(manifest["alpha"]),
               "--workers", str(workers), "--k", str(manifest["k"])]
        if manifest["exact_labels"]:
            cmd.append("--exact-labels")
        if manifest["byte_budget"] is not None:
            cmd += ["--byte-budget", str(manifest["byte_budget"])]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True, bufsize=1)
        self.lines = queue.Queue()
        self.ready = queue.Queue()
        self.stderr = []
        self.threads = [threading.Thread(target=self._pump_out, daemon=True),
                        threading.Thread(target=self._pump_err, daemon=True)]
        for t in self.threads:
            t.start()

    def _pump_out(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _pump_err(self):
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip("\n"))
            if "reference(s) from" in line:
                self.ready.put(time.perf_counter())
        self.ready.put(None)

    def wait_ready(self):
        """Seconds from spawn until the service announced its catalog."""
        try:
            at = self.ready.get(timeout=SERVE_READY_TIMEOUT_S)
        except queue.Empty:
            at = None
        if at is None:
            raise BenchError("ems serve did not start: " + " | ".join(self.stderr[-5:]))
        return at - self.start

    def send(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def receive(self, timeout):
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return None

    def peak_rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def close(self):
        """EOF on stdin, then wait for a clean exit (killing on a stall)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for t in self.threads:
            t.join(timeout=5)
        return code


def serve_loop(srv, requests, workers, seconds, on_done):
    """Closed loop with `workers` requests outstanding, for `seconds` or
    until `requests` is exhausted, whichever is first. `ems serve` answers a
    batch only once it holds `--workers` lines or EOF, so the loop keeps
    exactly that many outstanding and closes stdin to flush a short tail.
    Calls on_done(index, request, response_or_None, latency_ms)."""
    start = time.perf_counter()
    pending = []  # (index, request, sent_at)
    nxt = 0
    closed = False

    def sending():
        if nxt >= len(requests):
            return False
        return seconds is None or time.perf_counter() - start < seconds

    while True:
        while not closed and len(pending) < workers and sending():
            req = requests[nxt]
            pending.append((nxt, req, time.perf_counter()))
            srv.send({"log": req["path"], "k": req["k"]})
            nxt += 1
        if not pending:
            break
        if not closed and not sending() and len(pending) < workers:
            srv.proc.stdin.close()
            closed = True
        line = srv.receive(REQUEST_TIMEOUT_S)
        now = time.perf_counter()
        index, req, sent = pending.pop(0)
        if line is None:
            on_done(index, req, None, (now - sent) * 1e3)
            for index, req, sent in pending:
                on_done(index, req, None, (now - sent) * 1e3)
            pending = []
            break
        on_done(index, req, line, (now - sent) * 1e3)
    return time.perf_counter() - start


class Run:
    def __init__(self, args, root, bins):
        self.args = args
        self.root = root
        self.bins = bins
        self.tally = Tally()
        self.work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.inputs = os.path.join(self.work, "inputs")
        self.nproc = os.cpu_count() or 1

    def tool(self, *argv):
        return run_quiet([self.bins["emsbench"], *argv], cwd=self.root)

    def generate(self):
        argv = ["gen", self.args.workload, str(self.args.seed), self.inputs]
        if self.args.toy:
            argv.append("--toy")
        self.tool(*argv)
        # Write the fresh inputs back now, so the writeback does not land
        # on the store's fsyncs or in the measured window.
        os.sync()
        with open(os.path.join(self.inputs, "manifest.json")) as f:
            self.manifest = json.load(f)
        m = self.manifest
        self.workers = max(1, min(m["workers"], self.nproc))
        self.requests = [
            {"files": [os.path.join(self.inputs, f) for f in r["files"]], "k": r["k"],
             "path": os.path.join(self.inputs, r["files"][0])}
            for r in m["requests"]]

    def admit(self, store, path):
        start = time.perf_counter()
        proc = subprocess.run([self.bins["ems"], "catalog", "add", "--store", store, path],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        ms = (time.perf_counter() - start) * 1e3
        self.tally.op(proc.returncode == 0, f"catalog add {path}: {proc.stderr.strip()}")
        return ms

    def populate(self, rounds):
        """Fresh stores holding every reference, written by `ems catalog
        add` (the store write path); the first is the pristine store the
        services start from. Returns the admit latencies."""
        if self.args.workload == "pair-cold":
            files = [r["files"][0] for r in self.requests[:PAIR_ADMITS]]
        else:
            files = [os.path.join(self.inputs, f) for f in self.manifest["refs"]]
        self.pristine = os.path.join(self.work, "pristine")
        latencies = []
        for r in range(rounds):
            store = self.pristine if r == 0 else os.path.join(self.work, f"admit{r}")
            latencies += [self.admit(store, f) for f in files]
        return latencies

    def fresh_store(self, tag):
        path = os.path.join(self.work, f"store-{tag}")
        shutil.copytree(self.pristine, path)
        return path

    def start_serve(self, tag):
        srv = Serve(self.bins["ems"], self.fresh_store(tag), self.manifest, self.workers)
        try:
            return srv, srv.wait_ready()
        except BenchError:
            srv.proc.kill()
            srv.close()
            raise

    # -- end-to-end ------------------------------------------------------

    def end_to_end(self):
        self.populate(1)
        served = []
        if self.args.workload == "pair-cold":
            setups, window, rss = self.match_e2e(served)
        else:
            setups, window, rss = self.serve_e2e(served)
        path = os.path.join(self.work, "served.jsonl")
        with open(path, "w") as f:
            for s in served:
                f.write(json.dumps(s) + "\n")
        verdict = json.loads(self.tool("oracle", self.inputs, path).strip().splitlines()[-1])
        bad = set(verdict["bad"])
        for pos, s in enumerate(served):
            self.tally.op(pos not in bad, f"request {s['i']} (code {s['code']})")
        for msg in verdict["failures"]:
            log(f"oracle: {msg}")
        latencies = [s["latency_ms"] for s in served]
        if not latencies:
            raise BenchError("no request completed")
        tail, pct, n = percentile_tail(latencies)
        metrics = {
            "request.p50_ms": (statistics.median(latencies), "ms"),
            "request.tail_ms": (tail, "ms"),
            "throughput_rps": (len(served) / window, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        errors = self.tally.failed / max(1, self.tally.attempted)
        log(f"{self.args.workload}: {len(served)} requests in {window:.2f} s, "
            f"{self.workers} outstanding, oracle checked {verdict['checked']}")
        log(f"request.tail_ms is p{pct:.1f} of {n} samples ({TAIL_BEYOND} beyond it)")
        log(f"errors_frac = {errors:.6f} ({self.tally.failed}/{self.tally.attempted})")
        for msg in self.tally.messages:
            log(f"failure: {msg}")
        return metrics, not bad

    def match_e2e(self, served):
        tiny = [os.path.join(self.inputs, f) for f in self.manifest["refs"]]
        setups = []
        for _ in range(TINY_REPS):
            code, _, ms, _ = timed_match(self.bins["ems"], tiny[0], tiny[1], REQUEST_TIMEOUT_S)
            self.tally.op(code == 0, f"tiny match: code {code}")
            setups.append(ms / 1e3)
        start = time.perf_counter()
        rss = []
        for i, req in enumerate(self.requests):
            if time.perf_counter() - start >= self.args.seconds:
                break
            code, out, ms, peak = timed_match(self.bins["ems"], *req["files"], REQUEST_TIMEOUT_S)
            if i < RSS_AFTER:
                rss.append(peak)
            served.append({"i": i, "files": req["files"], "code": code, "out": out,
                           "latency_ms": ms})
        else:
            log("note: the request pool ran out before the window ended")
        return setups, time.perf_counter() - start, max(rss)

    def serve_e2e(self, served):
        setups = []
        for rep in range(SETUP_REPS - 1):
            srv, ready = self.start_serve(f"setup{rep}")
            setups.append(ready)
            self.tally.op(srv.close() == 0, "ems serve exited nonzero after set-up")
        srv, ready = self.start_serve("serve")
        setups.append(ready)
        rss = []
        try:
            def done(index, req, line, ms):
                served.append({"i": index, "files": req["files"],
                               "code": -1 if line is None else 0, "out": line or "",
                               "latency_ms": ms})
                if len(served) == RSS_AFTER:
                    rss.append(srv.peak_rss_mb())
            window = serve_loop(srv, self.requests, self.workers, self.args.seconds, done)
            rss.append(srv.peak_rss_mb())
            if len(served) == len(self.requests):
                log("note: the request pool ran out before the window ended")
        finally:
            code = srv.close()
        self.tally.op(code == 0, f"ems serve exited {code}")
        return setups, window, rss[0]

    # -- traced ----------------------------------------------------------

    def traced(self):
        admits = self.populate(ADMIT_ROUNDS)
        served = []
        trace_reqs = [dict(self.requests[i], index=i) for i in self.manifest["trace"]]
        if self.args.workload == "pair-cold":
            for req in trace_reqs:
                code, out, ms, _ = timed_match(self.bins["ems"], *req["files"],
                                                  REQUEST_TIMEOUT_S)
                served.append({"i": req["index"], "files": req["files"], "code": code,
                               "out": out, "latency_ms": ms})
            store = "-"
        else:
            srv, _ = self.start_serve("traced")
            try:
                def done(index, req, line, ms):
                    served.append({"i": req["index"], "files": req["files"],
                                   "code": -1 if line is None else 0, "out": line or "",
                                   "latency_ms": ms})
                serve_loop(srv, trace_reqs, self.workers, None, done)
            finally:
                self.tally.op(srv.close() == 0, "ems serve exited nonzero")
            store = self.pristine
        path = os.path.join(self.work, "served.jsonl")
        with open(path, "w") as f:
            for s in served:
                f.write(json.dumps(s) + "\n")
        trace_path = os.path.join(self.work, "trace.jsonl")
        summary = json.loads(self.tool("trace", self.inputs, path, store,
                                       trace_path).strip().splitlines()[-1])
        failures = list(summary["failures"])
        bad = min(summary["failed"], summary["requests"])
        for i in range(summary["requests"]):
            self.tally.op(i >= bad)
        report = subprocess.run([self.bins["ems"], "report", trace_path], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.tally.op(report.returncode == 0 and report.stdout.strip() != "",
                      f"ems report rejected the trace: {report.stderr.strip()}")
        check = subprocess.run([self.bins["trace_check"], trace_path], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        self.tally.op(check.returncode == 0,
                      f"trace_check rejected the trace: {check.stderr.strip()}")
        for msg in failures + self.tally.messages:
            log(f"failure: {msg}")
        log(f"{self.args.workload}: traced {summary['requests']} requests; "
            f"{check.stdout.strip()}")
        log("self time per request (ms): " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(summary["self_ms"].items())))
        metrics = dict(summary["metrics"], **{"admit.p50_ms": statistics.median(admits)})
        return metrics, summary["failed"] == 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass
        # Settle the deletes before the next run's fsyncs are timed.
        os.sync()


def units(root, section):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args()
    root = os.getcwd()
    run = None
    try:
        bins = build(root)
        run = Run(args, root, bins)
        log(f"host: nproc={run.nproc} os={platform.system()} arch={platform.machine()} "
            f"workload={args.workload} seed={args.seed} trace={args.trace}")
        run.generate()
        if args.trace:
            values, ok = run.traced()
            expected = units(root, "per_layer")
            metrics = {}
            for name, unit in expected.items():
                if name not in values:
                    raise BenchError(f"the traced run reported no {name}")
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            values, ok = run.end_to_end()
            expected = units(root, "end_to_end")
            metrics = {name: {"value": v, "unit": expected.get(name, u)}
                       for name, (v, u) in values.items()}
        for name, m in metrics.items():
            log(f"{name} = {m['value']:.6g} {m['unit']}")
        tally = run.tally
        result = {"correct": bool(ok and tally.failed == 0), "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        if run is not None:
            run.close()
        return 2
    run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
