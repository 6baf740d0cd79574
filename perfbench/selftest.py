#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a source checkout, with no other benchmark running (the
hygiene checks look for any leftover fastver process).  Takes about four
minutes.  Checks, on quick sizes of every workload:

- every metric of BENCHMARK.json is reported and no operation fails;
- the traced run's per-layer counts repeat exactly for the same seed, and
  show each workload's layer split;
- flipping one byte of a cold segment mid-run makes the run report
  failures instead of numbers;
- a run killed by its timeout leaves no child process and no temporary
  directory behind, and neither does any other run;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("hot-inproc", "large-cold", "net-repl")

# Per-layer metrics that are counts of work: they depend only on the seeded
# op sequence, so a same-seed traced run must reproduce them exactly.
EXACT = (
    "core.blum_frac", "core.merkle_frac", "core.words_per_op",
    "core.scan_touched", "verifier.calls_per_op", "verifier.add_m_per_op",
    "merkle.hashes_per_op", "crypto.mset_elements_per_op",
    "crypto.hmac_sha256_words", "core.major_gc_per_kop",
    "enclave.transitions_per_kop", "enclave.flush_entries_mean",
    "kvstore.reads_per_op", "kvstore.writes_per_op",
    "kvstore.rcu_copies_per_op", "cold.reads_per_op", "cold.writes_per_op",
    "cold.gc_rewrites", "cold.bytes_per_user_byte",
    "net.batch_requests_mean", "replica.applied_frac",
)

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def fastver_processes():
    """Pids of live benchmark runners and fastver servers/followers."""
    pids = []
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm in ("fvbench.exe", "fastver_cli.exe"):
            pids.append(int(p))
    return pids


def run(workload, trace, *extra, cwd=ROOT, seconds="2"):
    """Run the benchmark; returns (exit code, result or None, stderr)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", seconds, "--trace", str(trace), "--quick", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    check(not fastver_processes(), f"{workload} {' '.join(extra)}: no process outlives the run")
    check(not os.path.exists(os.path.join(cwd, ".bench_tmp")),
          f"{workload} {' '.join(extra)}: temporary directory removed")
    return p.returncode, result, p.stderr


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    if fastver_processes() or os.path.exists(".bench_tmp"):
        print("another benchmark run is active (or left .bench_tmp/ behind)")
        return 2

    traced = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, res, err = run(w, trace)
            ok = code == 0 and res is not None
            check(ok, f"{w} trace={trace}: exits 0 with a result" + ("" if ok else f"\n{err}"))
            if not ok:
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={trace}: correct, no failed operation")
            check(set(res["metrics"]) == names[trace],
                  f"{w} trace={trace}: every metric of BENCHMARK.json is reported")
            if trace:
                traced[w] = {k: v["value"] for k, v in res["metrics"].items()}

    for w, first in traced.items():
        code, res, _ = run(w, 1)
        again = {k: v["value"] for k, v in res["metrics"].items()} if res else {}
        differ = [k for k in EXACT if first.get(k) != again.get(k)]
        check(code == 0 and not differ, f"{w}: same-seed traced counts repeat exactly {differ}")

    if "hot-inproc" in traced:
        m = traced["hot-inproc"]
        check(m["core.blum_frac"] >= 0.75, f"hot-inproc: blum_frac {m['core.blum_frac']:.3f} >= 0.75")
        idle = [k for k in m if k.split(".")[0] in ("cold", "net", "replica") and m[k] != 0]
        check(not idle, f"hot-inproc: cold, net and replica layers idle {idle}")
    if "large-cold" in traced:
        m = traced["large-cold"]
        check(m["core.merkle_frac"] >= 0.5, f"large-cold: merkle_frac {m['core.merkle_frac']:.3f} >= 0.5")
        check(m["cold.reads_per_op"] > 0, "large-cold: cold reads happen")
    if "net-repl" in traced:
        m = traced["net-repl"]
        check(m["replica.applied_frac"] == 1.0, "net-repl: follower applied every streamed op")

    code, res, _ = run("large-cold", 0, "--tamper")
    check(code != 0 and res is not None and not res["correct"] and res["failed"] > 0
          and res["metrics"] == {},
          "large-cold --tamper: reports failures, not numbers")

    code, res, _ = run("net-repl", 0, "--timeout", "3", seconds="30")
    check(code != 0 and res is None, "net-repl killed by its timeout: exits non-zero, no result")

    bare = os.path.join(ROOT, ".bench_tmp_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res, _ = run("hot-inproc", 0, cwd=bare)
        check(code != 0 and res is None, "without the program's sources: exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
