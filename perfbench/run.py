#!/usr/bin/env python3
"""FastVer benchmark: one command per workload run.

    python3 perfbench/run.py --workload hot-inproc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Builds the benchmark runner
(perfbench/fvbench.ml) and the fastver CLI from source, runs one workload in
a temporary directory under .bench_tmp/, and prints two JSON lines: the run
context, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  A run with any failed operation, integrity
error or missing metric prints "correct": false with no metrics and exits 1.
Every child process is reaped and the temporary directory removed on success,
failure and timeout.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = "perfbench/fvbench.exe"
CLI = "bin/fastver_cli.exe"
BUILD_DIR = "_build/default"
WORKLOADS = ("hot-inproc", "large-cold", "net-repl")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def cpu_times():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return (0, 0)
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    steal = fields[7] if len(fields) > 7 else 0
    return (steal, sum(fields[:8]))


def source_rev():
    """The checkout's git revision, or None outside a git checkout."""
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def kill_group(proc):
    """SIGKILL whatever is left of the runner's process group and wait until
    it is gone (reaping the runner itself); True if anything was left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        proc.poll()
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return True


def probe_us():
    """Time of a fixed pure-Python loop of about 0.2 ms on this thread's CPU."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(1200):
        x = (x * 1103515245 + 12345) & 0xFFFFFF
    return (time.perf_counter() - t0) * 1e6


def probe_on(cpu, reps=1):
    """Median of [reps] probes run on [cpu] by the calling thread."""
    os.sched_setaffinity(0, {cpu})
    return sorted(probe_us() for _ in range(reps))[reps // 2]


def group_tasks(pgid):
    """Thread ids of every process in the process group [pgid]."""
    tids = []
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                stat = f.read()
            # Fields after the parenthesised command: state ppid pgrp ...
            if int(stat[stat.rindex(")") + 2:].split()[2]) != pgid:
                continue
            tids.extend(int(t) for t in os.listdir(f"/proc/{p}/task"))
        except (OSError, ValueError):
            continue
    return tids


class CpuHopper(threading.Thread):
    """Keeps the run on a quiet virtual CPU.

    Each workload keeps one process busy at a time, and the whole run
    (runner, server, follower) shares one CPU, so that a request handed
    between client and server never waits for the hypervisor to wake another
    CPU.  Each virtual CPU of the host is a hyperthread whose sibling other
    tenants use: while the sibling is busy, everything on that CPU takes
    about 1.5x as long, for a fraction of a second up to most of a minute,
    and the two CPUs' slow phases are mostly independent.  Every 0.05 s this
    thread times a short fixed loop on the run's CPU and on the other one
    (0.2 ms each, about 0.4 % of the run's CPU) and moves the whole run to the
    other CPU when that one has been the faster by a fifth in two probes
    running.  It also keeps the first byte of the quiet file at 1 while the
    run's CPU is within a fifth of the fastest probe seen, 0 otherwise; the
    runner waits briefly for a 1 before each set-up and scan.  The program
    under test is unchanged; only where and when its timed actions run is
    chosen."""

    PERIOD_S = 0.05
    MARGIN = 1.2

    def __init__(self, cpus, quiet_path):
        super().__init__(daemon=True)
        self.cpus = sorted(cpus)
        # First byte '1' while the run's CPU is quiet: within the margin of
        # the fastest probe seen on any CPU (see fvbench.ml, "Quiet gate").
        self.quiet_fd = os.open(quiet_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.pwrite(self.quiet_fd, b"1", 0)
        self.fastest = None
        self.cpu = min(self.cpus, key=lambda c: probe_on(c, reps=5))
        self.pgid = None
        self.hops = 0
        self.probes = []  # the run's CPU, each period
        self.stop = threading.Event()

    def pin_child(self):
        """preexec_fn of the runner: start it on the chosen CPU."""
        os.sched_setaffinity(0, {self.cpu})

    def move(self, cpu):
        for tid in group_tasks(self.pgid):
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:
                pass
        self.cpu = cpu
        self.hops += 1

    def slow_share(self):
        """Share of the periods in which the run's CPU was slow: its probe
        took a fifth longer than the run's fastest probe."""
        if not self.probes:
            return 0.0
        fast = min(self.probes)
        return sum(p > self.MARGIN * fast for p in self.probes) / len(self.probes)

    def probe_quantiles(self):
        """The 10th, 50th and 90th percentile of the run's CPU's probes."""
        p = sorted(self.probes)
        return [p[int(q * (len(p) - 1))] for q in (0.1, 0.5, 0.9)] if p else []

    def run(self):
        if len(self.cpus) < 2:
            return
        streak = 0
        while not self.stop.wait(self.PERIOD_S):
            other = next(c for c in self.cpus if c != self.cpu)
            here, there = probe_on(self.cpu), probe_on(other)
            self.probes.append(here)
            self.fastest = min(here, there, self.fastest or here)
            streak = streak + 1 if here > self.MARGIN * there else 0
            if streak >= 2:
                self.move(other)
                streak = 0
                here = there
            quiet = here <= self.MARGIN * self.fastest
            os.pwrite(self.quiet_fd, b"1" if quiet else b"0", 0)


def host_probe_ms():
    """Median time of a fixed pure-Python loop on every CPU in turn.  It
    reads the host's speed at that moment, independent of the program;
    recorded, not used, so that spread between runs can be attributed."""
    cpus = os.sched_getaffinity(0)
    try:
        return {c: probe_on(c, reps=7) / 1e3 for c in sorted(cpus)}
    finally:
        os.sched_setaffinity(0, cpus)


def build():
    cmd = ["dune", "build", "--root", ".", "./" + RUNNER, "./" + CLI]
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=900, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if out.returncode != 0:
        log("build failed:\n" + out.stdout[-4000:])
        return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # For the benchmark's own tests (perfbench/selftest.py):
    ap.add_argument("--quick", action="store_true", help="small sizes")
    ap.add_argument("--tamper", action="store_true",
                    help="flip one byte of a cold segment mid-run")
    ap.add_argument("--timeout", type=float, default=170.0,
                    help="seconds before the run is killed")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    if not build():
        return 1
    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1

    # Relative, so that Unix socket paths stay short in any checkout.
    tmp = os.path.join(".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    quiet_path = os.path.join(tmp, "cpu-quiet")
    cmd = [os.path.join(BUILD_DIR, RUNNER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, "--quiet-file", quiet_path,
           "--cli", os.path.join(BUILD_DIR, CLI)]
    if args.quick:
        cmd.append("--quick")
    if args.tamper:
        cmd.append("--tamper")

    proc = None
    probe0 = host_probe_ms()
    steal0, total0 = cpu_times()
    cpus = os.sched_getaffinity(0)
    hopper = CpuHopper(cpus, quiet_path)
    try:
        # Its own process group, so a timeout takes the server and follower
        # children down with it; on one CPU, with its children.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True, preexec_fn=hopper.pin_child)
        hopper.pgid = proc.pid
        hopper.start()
        try:
            out, _ = proc.communicate(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            kill_group(proc)
            log(f"timed out after {args.timeout:.0f}s; run killed")
            return 1
        finally:
            hopper.stop.set()
            if hopper.is_alive():
                hopper.join()
            os.close(hopper.quiet_fd)
            os.sched_setaffinity(0, cpus)
        leaked = kill_group(proc)
    finally:
        if proc is not None and proc.poll() is None:
            kill_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass
    steal1, total1 = cpu_times()
    probe1 = host_probe_ms()

    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"runner exited with code {proc.returncode}")
        return 1
    res = json.loads(lines[-1])
    ctx = dict(res.get("context", {}))
    ctx.update(workload=args.workload, seed=args.seed, trace=args.trace,
               nproc=os.cpu_count(), cpus_used=1, cpu_hops=hopper.hops,
               slow_cpu_share=hopper.slow_share(),
               run_cpu_probe_us=hopper.probe_quantiles(),
               rev=source_rev(),
               steal_frac=(steal1 - steal0) / max(1, total1 - total0),
               host_probe_ms=[probe0, probe1],
               notes=res.get("notes", []))
    metrics = res.get("metrics", {})
    problems = list(res.get("notes", [])) if res["failed"] else []
    if leaked:
        problems.append("a child process outlived the run")
    if set(metrics) != set(want):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if name in want and (m.get("unit") != want[name]
                             or not isinstance(m.get("value"), (int, float))):
            problems.append(f"metric {name}: bad value or unit {m}")
    correct = bool(res["correct"]) and res["failed"] == 0 and not problems
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]) + (0 if correct or res["failed"] else 1),
        "metrics": metrics if correct else {},
    }))
    if not correct:
        for p in problems:
            log(p)
        return 1
    return 0


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_signal)
    sys.exit(main())
