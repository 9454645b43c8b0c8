#!/usr/bin/env python3
"""The repository benchmark: end-to-end CONGEST cost and wall time of the
distributed min-cut pipeline, with each layer timed from outside.

Run from the root of the repository:

    python3 perfbench/run.py --workload large_sparse --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload chaos_torus --trace 1 --out results.json
    python3 perfbench/run.py --diff old.json new.json

Each run builds the `perfbench` package (release, fat LTO) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload for
`--seconds` seconds of untraced solve passes and, with `--trace 1`, one
traced pass. It prints a short summary, the machine and build
fingerprint, and as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Every solve is certified; a wrong cut, an error, or counters that differ
between passes make the run fail (exit code 1).

`--out FILE` merges the full result (every metric, the per-stem ledger
totals, the trace spans and the fingerprint) into FILE under the
workload's name. `--diff OLD NEW` prints, per workload present in both
files, the end-to-end deltas and the per-stem message and wall deltas.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("large_sparse", "packed_small", "chaos_torus")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the measuring binary and returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        # Cargo's output goes to stderr so the result stays the last
        # stdout line.
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0:
        fail(f"build failed with exit code {p.returncode}")
    return os.path.join(ROOT, target, "release", "perfbench")


def command_output(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from, so results from
    a checkout without git history still name their code."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", os.path.basename(BENCH_DIR)):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".rs", ".toml", ".lock"))]
    files += [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def release_profile():
    """The `[profile.release]` settings of the benchmark's manifest."""
    out, inside = [], False
    with open(os.path.join(BENCH_DIR, "Cargo.toml")) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if line.startswith("["):
                inside = line == "[profile.release]"
            elif inside and line:
                out.append(line.replace(" ", ""))
    return " ".join(out)


def fingerprint(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), None)
    except OSError:
        pass
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    commit = None
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "release_profile": release_profile(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def declared_metrics():
    """The metric names BENCHMARK.json declares, by kind (or None)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def merge_out(path, workload, record):
    data = {}
    if os.path.isfile(path):
        with open(path) as fh:
            data = json.load(fh)
    data[workload] = record
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def pct(old, new):
    if old is None or new is None:
        return "n/a"
    if old == 0:
        return "same" if new == 0 else "new"
    return f"{100.0 * (new - old) / old:+.2f}%"


def fmt(x):
    if x is None:
        return "missing"
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def diff(old_path, new_path):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    common = [w for w in WORKLOADS if w in old and w in new]
    if not common:
        fail("the two files share no workload")
    for w in common:
        a, b = old[w]["result"], new[w]["result"]
        fa, fb = old[w]["fingerprint"], new[w]["fingerprint"]
        print(f"## {w}  ({fa.get('git_commit') or fa['source_sha256'][:12]}"
              f" -> {fb.get('git_commit') or fb['source_sha256'][:12]})")
        print(f"{'metric':<16} {'old':>14} {'new':>14} {'delta':>9}")
        for name, m in b["end_to_end"].items():
            o = a["end_to_end"].get(name, {}).get("value")
            print(f"{name:<16} {fmt(o):>14} {fmt(m['value']):>14} {pct(o, m['value']):>9}")
        print(f"{'stem':<12} {'messages old':>13} {'new':>13} {'delta':>9}"
              f" {'wall_s old':>11} {'new':>11} {'delta':>9}")
        for stem in list(b["stems"]) + [s for s in a["stems"] if s not in b["stems"]]:
            so, sn = a["stems"].get(stem, {}), b["stems"].get(stem, {})
            mo, mn = so.get("messages"), sn.get("messages")
            wo, wn = so.get("wall_s"), sn.get("wall_s")
            print(f"{stem:<12} {fmt(mo):>13} {fmt(mn):>13} {pct(mo, mn):>9}"
                  f" {fmt(wo):>11} {fmt(wn):>11} {pct(wo, wn):>9}")
        print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="merge the full result into this JSON file")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two --out files and exit")
    args = ap.parse_args()
    if args.diff:
        diff(*args.diff)
        return
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    sys.stderr.write(p.stderr)
    if p.returncode != 0 or not p.stdout.strip():
        fail(f"benchmark binary exited with code {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = result[kind]
    declared = declared_metrics()
    if declared is not None and list(metrics) != declared[kind]:
        missing = set(declared[kind]) ^ set(metrics)
        fail(f"{kind} metrics differ from BENCHMARK.json: {sorted(missing)}")

    fp = fingerprint(args.seed)
    e2e = result["end_to_end"]
    print(f"perfbench {args.workload}: {result['passes']} untraced passes, "
          f"solve_s median {e2e['solve_s']['value']:.4f} s on-CPU, "
          f"{e2e['rounds']['value']:.0f} rounds, "
          f"{e2e['messages']['value']:.0f} messages, "
          f"{result['failed']}/{result['attempted']} solves failed")
    for f in result["failures"]:
        print(f"  failure: {f}")
    print("fingerprint: " + json.dumps(fp))
    if args.out:
        merge_out(args.out, args.workload, {"fingerprint": fp, "result": result})
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
