#!/usr/bin/env python3
"""The repository benchmark's entry point.

Builds the fleetbench driver from this checkout's sources, runs one workload
and prints the result as the last line of standard output:

    python3 fleetbench/run.py --workload itc99-seq --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run (its spans go to <build>/out/).  The build directory is
$CARGO_TARGET_DIR, or .bench_build, under the repository root.  See
fleetbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures once, then rebuilds what changed; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no plee sources in {ROOT}; run from a checkout of the repository", 2)
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return bdir / "fleetbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_repeatable(out_dir, key, row_digest):
    """Rows at one seed must repeat across runs of one binary."""
    path = out_dir / "row_digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if known.setdefault(key, row_digest) != row_digest:
        fail(f"rows for {key} differ from an earlier run's")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must be in [0, 2^64)", 2)

    bdir = build_dir()
    try:
        exe = build(bdir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    out_dir = bdir / "out"
    out_dir.mkdir(exist_ok=True)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{run_name}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_metrics(args.trace):
        fail(f"metrics {units} do not match BENCHMARK.json")
    binary = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    check_repeatable(out_dir, f"{args.workload}/{args.seed}/{binary}",
                     result["row_digest"])

    diagnostics = {"run": run_name, **result["diagnostics"]}
    with open(out_dir / "diagnostics.jsonl", "a") as log:
        log.write(json.dumps(diagnostics) + "\n")
    print(json.dumps({"diagnostics": {key: value for key, value in diagnostics.items()
                                      if not key.endswith("_series")}}))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
