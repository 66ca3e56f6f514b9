#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

One workload: the build output, then the workload's progress lines,
and as the last line of standard output one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). --all runs every workload
in its own process and prints a table of every metric by name and unit
(with the report-only p99), each workload's outcome digest and its
failed/attempted counts.

Each workload runs in a fresh process with a fresh scratch directory
under .perfbench/, with BHIVE_* and OCAMLRUNPARAM cleared. Everything
the build and the runs write stays inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["measure-cold", "measure-warm", "serve-hot", "serve-batch"]
AMBIENT = ["BHIVE_JOBS", "BHIVE_FAULTS", "BHIVE_STORE", "BHIVE_TRACE",
           "BHIVE_SCALE", "OCAMLRUNPARAM"]
STATE = ".perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def base_env():
    env = {k: v for k, v in os.environ.items() if k not in AMBIENT}
    tmp = os.path.abspath(os.path.join(STATE, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(STATE, "cache"))
    env["DUNE_CACHE"] = "disabled"
    return env


def source_digest():
    """SHA-256 over every source file the two executables are built from."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            name = os.path.basename(path)
            if name.endswith((".ml", ".mli", ".c", ".h")) or name in ("dune", "dune-project"):
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    """Build the benchmark and the daemon; return their paths. A build
    stamp over the sources skips dune when nothing changed since the
    last successful build."""
    for path in ["dune-project", "lib", "bin/bhive_serve.ml", "perfbench/dune"]:
        if not os.path.exists(path):
            fail(f"{path} is missing: run from the root of a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    targets = ["./perfbench/bench.exe", "./bin/bhive_serve.exe"]
    exes = tuple(os.path.join(build_dir, "default", t[2:]) for t in targets)
    stamp = os.path.join(build_dir, "perfbench.stamp")
    digest = source_digest()
    try:
        with open(stamp) as f:
            if f.read() == digest and all(os.path.isfile(e) for e in exes):
                return exes
    except OSError:
        pass
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "-j", "2"] + targets
    try:
        done = subprocess.run(cmd, env=base_env(), stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    with open(stamp, "w") as f:
        f.write(digest)
    return exes


def run_workload(bench, serve, workload, seed, seconds, trace):
    """Run one workload in its own process group; return its stdout lines."""
    tmp = os.path.join(STATE, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp, "--serve-exe", serve]
    proc = subprocess.Popen(cmd, env=base_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # daemons left behind by a crashed run share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(l + "\n" for l in lines))
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} printed a malformed result line")
    return lines, result


def report(rows):
    """The --all table: every metric by name and unit, digests, counts."""
    print()
    for workload, lines, result in rows:
        digest = next((l.split()[-1] for l in lines if "outcome_sha256" in l), "?")
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']} attempted={result['attempted']} "
              f"outcome_sha256={digest}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        for line in lines:
            if "report-only" in line:
                name, value, unit = line.split("report-only")[1].split()
                print(f"  {name:32s} {float(value):>16.6g} {unit} (report only)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    bench, serve = build()
    if args.all:
        rows = []
        for w in WORKLOADS:
            lines, result = run_workload(bench, serve, w, args.seed, args.seconds, args.trace)
            print("\n".join(lines[:-1]), flush=True)
            rows.append((w, lines, result))
        report(rows)
        sys.exit(0 if all(r["correct"] for _, _, r in rows) else 1)
    lines, _ = run_workload(bench, serve, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
