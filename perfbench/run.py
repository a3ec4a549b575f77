#!/usr/bin/env python3
"""Repository benchmark: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds the Go runner in this
directory (build outputs go to .bench_build/ at the root) and runs one
workload in a child process. The last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
workload runs twice, each for half of --seconds: once untraced, then
traced, with timed layer calls, layer counters and a CPU profile. The
metrics are then the per-layer metrics, and trace.overhead compares the
two runs. The lines above the result give the run's provenance stamp,
its failure fraction, and, on a traced run, the end-to-end metric and
workload each layer metric should move.

--selftest runs every workload at a tiny size in both modes. It checks
that every metric named in BENCHMARK.json comes out with its unit and
that no operation failed.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ["fig5", "serve_mag", "serve_gentag", "campaign"]

# Every run must end within this many seconds (the first build may take
# longer; it gets its own limit).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840

# Each per-layer metric: its unit, and the end-to-end metric and
# workload it should move. A layer a workload does not pass through
# reads 0 there.
LAYERS = {
    "core.malloc_calls": ("count", "alloc_intensive_s on fig5"),
    "core.malloc_ns": ("ns", "alloc_intensive_s on fig5"),
    "core.free_calls": ("count", "alloc_intensive_s on fig5"),
    "core.free_ns": ("ns", "alloc_intensive_s on fig5"),
    "vmem.word_calls": ("count", "wall_s on fig5"),
    "vmem.word_ns": ("ns", "wall_s on fig5"),
    "vmem.bulk_calls": ("count", "wall_s on fig5"),
    "vmem.bulk_ns": ("ns", "wall_s on fig5"),
    "apps.self_s": ("s", "nothing: no allocator change should move it (fig5)"),
    "core.probes_per_malloc": ("count", "alloc_intensive_s on fig5, sessions_per_s on serve_*"),
    "core.cas_retries_per_malloc": ("count", "session_p99_us on serve_gentag"),
    "remote.drain_batch": ("count", "sessions_per_s on serve_mag"),
    "gen.stale_frees": ("count", "fail_frac on serve_gentag: must equal the injected double frees"),
    "vmem.pages_dirty": ("count", "setup_s and max_rss_mb on fig5 and serve_*"),
    "vmem.self_share": ("fraction", "wall_s on fig5"),
    "core.heap.self_share": ("fraction", "sessions_per_s on serve_gentag"),
    "core.gen.self_share": ("fraction", "sessions_per_s on serve_gentag"),
    "core.magazine.self_share": ("fraction", "sessions_per_s on serve_mag"),
    "core.remote.self_share": ("fraction", "sessions_per_s on serve_mag"),
    "serve.self_share": ("fraction", "session_p50_us on serve_*"),
    "detect.self_share": ("fraction", "wall_s on campaign"),
    "replicate.self_share": ("fraction", "wall_s on campaign"),
    "runtime.gc_share": ("fraction", "session_p99_us on serve_*, max_rss_mb"),
    "exps.parallel_efficiency": ("ratio", "wall_s on campaign"),
    "trace.overhead": ("ratio", "nothing: the cost of tracing, per workload"),
}

# CPU self time by source file, summed into the layer that owns the
# file. The binary is built with -trimpath, so files read as
# "diehard@v0.0.0/internal/vmem/vmem.go" and "runtime/mgc.go".
SHARE_FILES = {
    "vmem.self_share": [r"^diehard(@[^/]*)?/internal/vmem/"],
    "core.heap.self_share": [r"^diehard(@[^/]*)?/internal/core/(diehard|sharded|snapshot)\.go$"],
    "core.gen.self_share": [r"^diehard(@[^/]*)?/internal/core/gen\.go$"],
    "core.magazine.self_share": [r"^diehard(@[^/]*)?/internal/core/magazine\.go$"],
    "core.remote.self_share": [r"^diehard(@[^/]*)?/internal/core/remote\.go$"],
    "serve.self_share": [r"^diehard(@[^/]*)?/internal/serve/"],
    "detect.self_share": [r"^diehard(@[^/]*)?/internal/detect/"],
    "replicate.self_share": [r"^diehard(@[^/]*)?/internal/replicate/"],
    "runtime.gc_share": [r"^runtime/(mgc[a-z]*|mbitmap|mwbbuf|mspanset)\.go$"],
}


def go_env():
    """Environment for the go tool that keeps every file it writes
    inside .bench_build."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD_DIR, "gocache"),
        "GOPATH": os.path.join(BUILD_DIR, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD_DIR, "config"),
        "PPROF_TMPDIR": os.path.join(BUILD_DIR, "pprof"),
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", BINARY, "."],
        cwd=BENCH_DIR, env=go_env(), capture_output=True, text=True,
        timeout=BUILD_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError("build failed:\n" + proc.stderr)


def child_env():
    """Environment for the runner: the Go runtime returns freed memory
    with MADV_FREE instead of MADV_DONTNEED.

    fig5 and campaign build fresh heaps all the time. With MADV_DONTNEED
    every reuse of memory the Go scavenger gave back is a page fault
    (about 60k a second on fig5, 130k on campaign), and on a shared host
    the cost of a fault swings with the neighbours' memory traffic. With
    MADV_FREE the pages stay mapped until the kernel needs them, which
    cuts the faults about 35-fold and leaves the peak RSS as it was."""
    env = dict(os.environ)
    env["GODEBUG"] = ",".join(
        s for s in (env.get("GODEBUG", ""), "madvdontneed=0") if s)
    return env


def run_child(workload, seed, seconds, *extra, deadline):
    """Runs the Go runner once and returns its report."""
    args = [BINARY, "-workload", workload, "-seed", str(seed),
            "-seconds", repr(seconds), *extra]
    proc = subprocess.run(args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing")
    return json.loads(lines[-1])


def cpu_shares(profile):
    """Flat CPU share of each layer in a profile, from pprof's per-file
    table."""
    proc = subprocess.run(
        ["go", "tool", "pprof", "-top", "-files", "-nodecount=100000",
         "-nodefraction=0", "-edgefraction=0", BINARY, profile],
        cwd=ROOT, env=go_env(), capture_output=True, text=True,
        timeout=RUN_LIMIT_S)
    shares = {name: 0.0 for name in SHARE_FILES}
    if proc.returncode != 0:
        if "empty" in proc.stderr or "no samples" in proc.stderr:
            return shares
        raise RuntimeError("pprof failed:\n" + proc.stderr)
    row = re.compile(r"^\s*\S+\s+([\d.]+)%\s+[\d.]+%\s+\S+\s+[\d.]+%\s+(\S.*)$")
    for line in proc.stdout.splitlines():
        m = row.match(line)
        if not m:
            continue
        flat = float(m.group(1)) / 100
        path = m.group(2).removesuffix(" (inline)").strip()
        for name, patterns in SHARE_FILES.items():
            if any(re.search(p, path) for p in patterns):
                shares[name] += flat
    return shares


def stamp(report, workload, seed):
    """Provenance of a run: host, toolchain, source and seed."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {**report["stamp"], "commit": commit,
            "source_sha256": digest.hexdigest()[:16],
            "workload": workload, "seed": seed}


def measure(workload, seed, seconds, trace, deadline, tiny=False):
    """One benchmark run; returns (result, notes) where notes are the
    human-readable lines printed above the result."""
    extra = ["-tiny"] if tiny else []
    if not trace:
        rep = run_child(workload, seed, seconds, *extra, deadline=deadline)
        result = {"correct": rep["correct"], "attempted": rep["attempted"],
                  "failed": rep["failed"],
                  "metrics": {k: v for k, v in rep["metrics"].items()
                              if k not in LAYERS}}
        reports = [rep]
    else:
        half = max(1.0, seconds / 2)
        plain = run_child(workload, seed, half, *extra, deadline=deadline)
        profile = os.path.join(BUILD_DIR, f"cpu-{workload}-{os.getpid()}.pprof")
        try:
            traced = run_child(workload, seed, half, "-layers",
                               "-cpuprofile", profile, *extra,
                               deadline=deadline)
            shares = cpu_shares(profile)
        finally:
            if os.path.exists(profile):
                os.remove(profile)
        metrics = {name: {"value": 0.0, "unit": unit}
                   for name, (unit, _) in LAYERS.items()}
        metrics.update({k: v for k, v in traced["metrics"].items()
                        if k in LAYERS})
        for name, share in shares.items():
            metrics[name] = {"value": share, "unit": "fraction"}
        metrics["trace.overhead"] = {
            "value": traced["metrics"]["wall_s"]["value"]
            / plain["metrics"]["wall_s"]["value"],
            "unit": "ratio"}
        reports = [plain, traced]
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"],
                  "metrics": metrics}

    notes = ["stamp " + json.dumps(stamp(reports[-1], workload, seed), sort_keys=True)]
    notes.append(f"fail_frac {result['failed'] / max(1, result['attempted'])!r}"
                 f" ({result['failed']} of {result['attempted']})")
    for rep in reports:
        notes.extend("problem " + p for p in rep.get("problems", []))
    if trace:
        for name, (_, target) in LAYERS.items():
            m = result["metrics"][name]
            notes.append(f"layer {name} = {m['value']!r} {m['unit']}  -> {target}")
    return result, notes


def selftest():
    """Tiny run of every workload in both modes against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if want[True] != {name: unit for name, (unit, _) in LAYERS.items()}:
        problems.append("per_layer metrics in BENCHMARK.json and run.py differ")
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("workloads in BENCHMARK.json and run.py differ")
    for workload in WORKLOADS:
        for trace in (False, True):
            deadline = time.monotonic() + RUN_LIMIT_S
            result, _ = measure(workload, 1, 1.0, trace, deadline, tiny=True)
            where = f"{workload} trace={int(trace)}"
            before = len(problems)
            got = result["metrics"]
            for name, unit in want[trace].items():
                if name not in got:
                    problems.append(f"{where}: {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} in {got[name]['unit']}, want {unit}")
            for name in set(got) - set(want[trace]):
                problems.append(f"{where}: {name} not in BENCHMARK.json")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: fail_frac is not 0 ({result['failed']} of {result['attempted']})")
            if not trace:
                for name, m in got.items():
                    if not m["value"] > 0:
                        problems.append(f"{where}: {name} reads {m['value']}")
            print(f"selftest {where}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("selftest problem: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    start = time.monotonic()
    try:
        build()
        if args.selftest:
            return selftest()
        # The limit starts after the build: only the first run in a
        # checkout builds for long.
        deadline = time.monotonic() + RUN_LIMIT_S
        result, notes = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), deadline)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(f"elapsed_s {time.monotonic() - start:.1f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
