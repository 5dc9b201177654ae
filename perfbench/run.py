#!/usr/bin/env python3
"""Build and run the route-server / sigma-kernel benchmark.

One run of one workload:

    python3 perfbench/run.py --workload churn-ring64 --seed 7 --seconds 30 --trace 0

prints a `stamp {...}` line (nproc, commit, rustc, command line, seed), a
`notes {...}` line (sample counts, percentiles used, digests) and, last,
the result object `{"correct", "attempted", "failed", "metrics"}`.  The
metric table goes to stderr.

Every workload, untraced and then traced:

    python3 perfbench/run.py [--seed N] [--seconds S]

Run from the repository root.  The benchmark builds `perfbench/` (a cargo
package of its own) against the repository's crates into
`$CARGO_TARGET_DIR`, default `.bench_build`, and keeps its stores, span
files and result records under `.bench_out/`.  Exit status: 0 when every
check passed, 1 when a correctness check failed, 2 when the benchmark
could not build or run (no result is printed then).
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["churn-ring64", "scale-asgraph", "durable-open"]
# Sources whose content identifies the build when there is no git commit.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__", ".git"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "scenario", "Cargo.toml")):
        fail(f"the repository's crates are missing under {ROOT}; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cargo build failed: {e}")
    if r.returncode != 0:
        fail(f"cargo build exited {r.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the paths and bytes of every source file."""
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, subdirs, files in os.walk(base):
            subdirs[:] = sorted(s for s in subdirs if s not in SKIP_DIRS)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp(args):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = capture(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_digest": source_digest(),
        "rustc": capture(["rustc", "--version"]),
        "command": " ".join([os.path.basename(sys.executable)] + sys.argv),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def cpu_ticks():
    """The aggregate `cpu` line of /proc/stat (None where there is none)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine between
    two /proc/stat readings: a run with a high share measured a slowed
    machine, not a slower program."""
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return round(delta[7] / total, 4) if total else None


def run_one(binary, args):
    """Run one workload; return (exit code, result dict or None)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    ticks = cpu_ticks()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=3 * args.seconds + 100)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 2, None
    steal = steal_share(ticks, cpu_ticks())
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        return 2, None
    result = json.loads(lines[-1])
    notes = {}
    for line in lines[:-1]:
        if line.startswith("notes "):
            notes = json.loads(line[len("notes "):])
    record = {"stamp": dict(stamp(args), steal_share=steal), "notes": notes,
              "result": result}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(OUT, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    print("stamp " + json.dumps(record["stamp"]))
    print("notes " + json.dumps(notes))
    print(json.dumps(result), flush=True)
    return r.returncode, result


def run_all(binary, args):
    """Every workload untraced, then every workload traced; one table."""
    rows, worst = [], 0
    for trace in (0, 1):
        for w in WORKLOADS:
            one = argparse.Namespace(workload=w, seed=args.seed, seconds=args.seconds, trace=trace)
            code, result = run_one(binary, one)
            worst = max(worst, code)
            if result is None:
                continue
            rows.append((w, "error_rate",
                         result["failed"] / max(result["attempted"], 1), "ratio"))
            rows += [(w, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    print(f"\n{'workload':<15} {'metric':<34} {'value':>16} unit")
    for w, k, v, u in rows:
        print(f"{w:<15} {k:<34} {v:>16.4f} {u}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    binary = build()
    if args.workload is None:
        sys.exit(run_all(binary, args))
    code, _ = run_one(binary, args)
    sys.exit(code)


if __name__ == "__main__":
    main()
