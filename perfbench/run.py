#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one
workload and passes its output through.  The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload offline_rca|stream_serve|train \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the repository root.  The build and everything a run writes
(model cache, checkpoints, BENCH_/SPANS_ reports) go to .bench_build/ (or
$CARGO_TARGET_DIR when set).  --tiny runs seconds-scale inputs with a tiny
model; perfbench/test_perfbench.py uses it.

Workloads (the generator seed is --seed; the program only sees the flights):
  offline_rca   closed loop, one analyst: RcaEngine::analyze over benign /
                GPS-spoof / IMU-attack flights on 2 workers, cycling until
                --seconds have passed and every flight was analysed once.
  stream_serve  open loop: 8 sessions of 60 s flights with staggered starts,
                100 ms chunks sent at 4x real time into one InferenceScheduler,
                serving on 1 worker, which busy-waits between ticks.  The
                schedule fixes the measured time (15 s); --seconds does not
                change it.
  train         DatasetBuilder over the seed-offset training flights, then
                SensoryMapper::fit_dataset with the standard config, 2 workers.
                One build and fit; --seconds does not change it.

End-to-end metrics (--trace 0): setup_s, throughput_rtf (flight-seconds per
busy second), latency_p50_ms / latency_p90_ms (offline: per-flight analyze;
serving: window -> verdict from the chunk's scheduled send; train: per-flight
add_flight), peak_rss_mb (peak resident memory of the measured phase, counted
after set-up's freed heap is returned to the OS) and ok_ratio (1 - failed /
attempted).  Quality
figures (tpr, fpr, val_mse) are printed as info lines and reported per layer.

Per-layer metrics (--trace 1) come from spans the benchmark records around
its public calls into sim, acoustics, core, ml and stream, plus the
program's own stage totals and counters; a layer that does no work in a
workload reports 0.  The traced run also reports trace.overhead_s (traced
minus untraced measured time) and trace.coverage (share of the measured busy
time inside layer spans).

The run exits nonzero when an output check fails: a reference-path
(1 worker, scalar SIMD) RcaReport mismatch, a hand-driven scheduler or
checkpoint/restore drive whose reports differ from the pump() run, or a
fitted model that does not round-trip through save/load.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_rca", "stream_serve", "train")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # CMake writes its cache before a configure can fail, so look for the
    # generated build files instead.
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "sb_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit(f"perfbench: build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build failed (log: {log_path})")
    return build_dir / "sb_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(out_root / "perfbench")
    work_dir = out_root / ("perfbench-work-tiny" if args.tiny else "perfbench-work")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
