#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds perfbench/ (which compiles the
checkout's src/) into .bench_build/perfbench, runs the benchmark's own unit
tests, then runs one pass of one workload. With --trace 1 it also parses the
Perfetto trace the pass wrote and checks its structure. The last line of
standard output is the JSON result; any failed correctness gate makes the
exit code non-zero. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s; leave room for the trace check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
HOST_PID = 1000000  # the pid perfbench gives its host spans
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, env, timeout):
    """Runs cmd with output captured; on failure prints it and exits."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)), 2)


def build():
    """Configures (once) and builds the benchmark; compiler temporaries
    stay inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], env, BUILD_TIMEOUT_S)


def commit_id():
    """The checkout's commit, read from .git without running git; the
    benchmark may run in an export that has no .git at all."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def check_trace(path):
    """Parses the trace and checks its shape. Returns (ok, summary)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return False, "cannot parse %s: %s" % (path, e)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return False, "no traceEvents array"
    names = {}
    sim_spans = 0
    host_ids = set()
    host_parents = []
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev or "pid" not in ev:
            return False, "event without ph/pid: %r" % (ev,)
        if ev["ph"] == "M" and ev.get("name") == "process_name":
            names[ev["pid"]] = ev.get("args", {}).get("name")
        elif ev["ph"] == "X":
            if not isinstance(ev.get("ts"), (int, float)) or \
                    not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                return False, "span without ts/dur: %r" % (ev,)
            if ev["pid"] == HOST_PID:
                args = ev.get("args", {})
                host_ids.add(args.get("span"))
                host_parents.append(args.get("parent"))
            else:
                sim_spans += 1
    if names.get(HOST_PID) != "host":
        return False, "no process named host at pid %d" % HOST_PID
    if not host_ids:
        return False, "no host spans"
    if sim_spans == 0:
        return False, "no simulated spans"
    orphans = [p for p in host_parents if p != 0 and p not in host_ids]
    if orphans:
        return False, "%d host spans name a missing parent" % len(orphans)
    sim_pids = sorted(p for p in names if p != HOST_PID)
    return True, ("%d events: %d simulated spans under pids %s, %d host spans "
                  "under pid %d" % (len(events), sim_spans, sim_pids,
                                    len(host_ids), HOST_PID))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build()
    unit = subprocess.run([os.path.join(BUILD, "perfbench_unit")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if unit.returncode != 0:
        sys.stderr.write(unit.stdout + unit.stderr)
        fail("the benchmark's unit tests failed", 3)

    trace_path = os.path.join(BUILD, "trace_%s.json" % args.workload)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--trace-out", trace_path,
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or list(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("no result line (exit %d)" % proc.returncode, 4)
    print("\n".join(lines[:-1]))

    code = proc.returncode
    if args.trace == 1:
        ok, summary = check_trace(trace_path)
        overhead = result["metrics"].get("obs.trace_overhead_pct", {})
        print("trace %s: %s; %s; obs.trace_overhead_pct = %s %%" % (
            os.path.relpath(trace_path, ROOT), "valid" if ok else "INVALID",
            summary, overhead.get("value")))
        if not ok:
            print("GATE FAILED trace.valid: " + summary)
            result["correct"] = False
            code = code or 5
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
