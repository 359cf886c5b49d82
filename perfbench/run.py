#!/usr/bin/env python3
"""The repository benchmark: three traffic mixes against the shipped
jitschedd and jitsched-router binaries.

    python3 perfbench/run.py --workload serve-distinct --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a source checkout.  The first run configures and
builds the library, the binaries and the load generator (Release) into
.bench_build/; later runs only rebuild what changed.  Logs, Chrome
traces and each result with its provenance and as performance-ledger
rows go to .bench_out/.

  --workload   serve-distinct | serve-repeat-routed | exact-search
  --seed       workload seed (default 1)
  --seconds    length of the measured window (default 15)
  --trace 0|1  0: end-to-end metrics; 1: per-layer metrics, the
               per-layer table, the tracing overhead, a Chrome trace
  --self-test  check the checks (one-tick make-span canary), then run
               every workload briefly at seed 2 in both modes and
               confirm every metric in BENCHMARK.json is emitted with
               its unit and has a recorded prediction

The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BUILD_TYPE = "Release"
WORKLOADS = ["serve-distinct", "serve-repeat-routed", "exact-search"]
DEFAULT_SEED = 1
TARGETS = ["perfbench", "jitschedd", "jitsched-router",
           "jitsched-trace-check"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no jitsched sources next to perfbench/; run from the root "
             "of a source checkout")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target"] + TARGETS, stdout=sys.stderr, check=True)
    return BUILD / "bin"


def provenance(bin_dir, args):
    """Where the numbers came from, recorded beside every result."""
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "hardware_cores": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": BUILD_TYPE,
        "binaries": {t: str((bin_dir / t).relative_to(ROOT))
                     for t in TARGETS},
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_child(argv):
    """Run the load generator, echoing its stdout; forward SIGINT and
    SIGTERM to it and reap it.  Returns (exit code, last stdout line);
    the load generator's own alarm ends it well inside 180 s."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)

    def forward(sig, _frame):
        child.send_signal(sig)

    old = {s: signal.signal(s, forward)
           for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)}
    last = ""
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line.strip() or last
        return child.wait(), last
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def ledger_rows(result, prov):
    """The result as performance-ledger rows (ROADMAP item 3)."""
    rows = []
    for name, m in result.get("metrics", {}).items():
        rows.append({
            "bench": "perfbench/" + prov["workload"],
            "metric": name,
            "layer": name.split(".")[0] if "." in name else "end_to_end",
            "unit": m["unit"],
            "value": m["value"],
            "host_cores": prov["hardware_cores"],
            "git_sha": prov["git_sha"],
            "seed": prov["seed"],
        })
    return rows


def run_quiet(argv):
    """Run a benchmark invocation and return (exit code, last line)."""
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=175)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def self_test(bin_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())
    problems = []
    rc, _ = run_child([str(bin_dir / "perfbench"), "--canary",
                       "--bin-dir", str(bin_dir), "--out-dir", str(OUT)])
    if rc != 0:
        problems.append("canary failed")
    for m in spec["per_layer"]:
        if m["name"] not in predictions:
            problems.append("no prediction for " + m["name"])
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, last = run_quiet([sys.executable, __file__, "--workload",
                                  workload, "--seed", "2", "--seconds",
                                  "1", "--trace", str(trace)])
            try:
                result = json.loads(last)
            except ValueError:
                problems.append(f"{workload} trace {trace}: no result")
                continue
            if rc != 0 or not result.get("correct"):
                problems.append(f"{workload} trace {trace}: checks failed")
            got = result.get("metrics", {})
            for m in spec[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{workload} trace {trace}: "
                                    f"{m['name']} missing or wrong unit")
            print(f"self-test: {workload} trace {trace}: "
                  f"{len(got)} metrics, correct={result.get('correct')}")
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    bin_dir = build()
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(bin_dir)
    prov = provenance(bin_dir, args)
    print("provenance " + json.dumps(prov), flush=True)
    rc, last = run_child([
        str(bin_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", str(bin_dir),
        "--out-dir", str(OUT),
    ])
    try:
        result = json.loads(last)
    except ValueError:
        return rc or 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": prov, "result": result,
                                "rows": ledger_rows(result, prov)},
                               indent=1) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
