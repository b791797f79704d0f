#!/usr/bin/env python3
"""The perf ledger: a committed record of the repository benchmark's runs.

PERF_LEDGER.jsonl (repository root) holds one JSON object per line, one line
per workload of a set of alternating parent/change perfbench runs:

    {"parent": "<sha>", "change": "<sha>", "workload": "train", "seed": 0,
     "runs": 10, "nproc": 4, "simd": "sse2/vector",
     "metrics": {"throughput_rtf": {"unit": "x",
                                    "parent": {"q1": ..., "median": ..., "q3": ...},
                                    "change": {"q1": ..., "median": ..., "q3": ...}},
                 ...}}

`metrics` carries every end-to-end metric BENCHMARK.json declares; the
quartiles are the inclusive ones of Python's statistics.quantiles, to six
significant digits.  A line may also carry the traced per-layer split:

     "layers": {"runs": 3,
                "metrics": {"acoustics.synth_s": {"unit": "s",
                                                  "parent": {...}, "change": {...}},
                            ...}}

with the quartiles of every per-layer metric (BENCHMARK.json "per_layer",
in that order) that some traced run of either side measured as nonzero.

    python3 tools/perf_ledger.py append --parent SHA --change SHA \\
        --parent-out P1.txt P2.txt ... --change-out C1.txt C2.txt ... \\
        [--parent-trace PT1.txt ... --change-trace CT1.txt ...]
    python3 tools/perf_ledger.py check

Each *.txt is the full stdout of one `perfbench/run.py` run: its header
line ("perfbench <workload> (seed N, end-to-end run; nproc N, SIMD
isa/backend, ...)", "traced run" for --trace 1) and its last line, the
result object.  `append` groups the runs by workload, checks that both
sides ran the same workload, seed, nproc and SIMD line the same number of
times (traced runs: the same setup as that workload's untraced runs), and
appends one line per workload.  `check` validates every line of the ledger,
with or without a `layers` block, and exits nonzero on the first line that
breaks the schema.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "PERF_LEDGER.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
HEADER = re.compile(r"^perfbench (\S+) \(seed (\d+), (end-to-end|traced) run; "
                    r"nproc (\d+), SIMD ([^,]+),")
SHA = re.compile(r"^[0-9a-f]{7,40}$")
KEYS = {"parent", "change", "workload", "seed", "runs", "nproc", "simd", "metrics"}


class LedgerError(Exception):
    pass


def read_run(path, traced=False):
    """(workload, seed, nproc, simd, {metric: value}) of one run's stdout:
    the end-to-end metrics of an untraced run, the per-layer ones of a
    traced run."""
    kind, names = ("traced", PER_LAYER) if traced else ("end-to-end", END_TO_END)
    lines = pathlib.Path(path).read_text().strip().splitlines()
    headers = [m for m in map(HEADER.match, lines) if m]
    if len(headers) != 1 or headers[0].group(3) != kind:
        raise LedgerError(f"{path}: expected one {kind} perfbench header line")
    workload, seed, _, nproc, simd = headers[0].groups()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise LedgerError(f"{path}: last line is not a result object ({e})")
    if result.get("correct") is not True:
        raise LedgerError(f"{path}: the run's output checks failed")
    metrics = result.get("metrics", {})
    missing = [name for name in names if name not in metrics]
    if missing:
        raise LedgerError(f"{path}: missing {kind} metrics {missing}")
    values = {name: float(metrics[name]["value"]) for name in names}
    return workload, int(seed), int(nproc), simd.strip(), values


def summary(values):
    """Quartiles to 6 significant digits (rounding keeps their order)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": float(f"{q1:.6g}"), "median": float(f"{median:.6g}"),
            "q3": float(f"{q3:.6g}")}


def group_runs(parent_paths, change_paths, traced):
    """{side: {workload: [(seed, nproc, simd, values), ...]}}."""
    sides = {"parent": {}, "change": {}}
    for side, paths in (("parent", parent_paths), ("change", change_paths)):
        for path in paths:
            workload, seed, nproc, simd, values = read_run(path, traced)
            sides[side].setdefault(workload, []).append((seed, nproc, simd, values))
    if set(sides["parent"]) != set(sides["change"]):
        raise LedgerError("parent and change runs cover different workloads")
    return sides


def paired(workload, p_runs, c_runs):
    """The one (seed, nproc, simd) setup of two equal-sized sides."""
    if len(p_runs) != len(c_runs) or len(p_runs) < 2:
        raise LedgerError(f"{workload}: need the same number (>= 2) of runs "
                          f"per side, got {len(p_runs)} and {len(c_runs)}")
    setups = {run[:3] for run in p_runs + c_runs}
    if len(setups) != 1:
        raise LedgerError(f"{workload}: runs differ in seed, nproc or SIMD: "
                          f"{sorted(setups)}")
    return setups.pop()


def quartile_block(names, p_runs, c_runs):
    return {name: {"unit": UNITS[name],
                   "parent": summary([run[3][name] for run in p_runs]),
                   "change": summary([run[3][name] for run in c_runs])}
            for name in names}


def ledger_lines(parent, change, parent_paths, change_paths,
                 parent_traces=(), change_traces=()):
    sides = group_runs(parent_paths, change_paths, traced=False)
    traces = group_runs(parent_traces, change_traces, traced=True)
    unknown = set(traces["parent"]) - set(sides["parent"])
    if unknown:
        raise LedgerError(f"traced runs of {sorted(unknown)} have no untraced runs")
    lines = []
    for workload in sorted(sides["parent"]):
        p_runs, c_runs = sides["parent"][workload], sides["change"][workload]
        seed, nproc, simd = paired(workload, p_runs, c_runs)
        entry = {"parent": parent, "change": change, "workload": workload,
                 "seed": seed, "runs": len(p_runs), "nproc": nproc, "simd": simd,
                 "metrics": quartile_block(END_TO_END, p_runs, c_runs)}
        if workload in traces["parent"]:
            pt_runs, ct_runs = traces["parent"][workload], traces["change"][workload]
            if paired(workload + " (traced)", pt_runs, ct_runs) != (seed, nproc, simd):
                raise LedgerError(f"{workload}: traced runs differ in seed, nproc "
                                  f"or SIMD from the untraced ones")
            measured = [name for name in PER_LAYER
                        if any(run[3][name] != 0.0 for run in pt_runs + ct_runs)]
            entry["layers"] = {"runs": len(pt_runs),
                               "metrics": quartile_block(measured, pt_runs, ct_runs)}
        lines.append(entry)
    return lines


def check_quartiles(metrics, names, subset=False):
    """Each metric is {unit, parent, change} with ordered quartiles; the
    metrics are `names` in that order, or with `subset` some of them."""
    if not isinstance(metrics, dict):
        raise LedgerError("metrics must be an object")
    expected = [n for n in names if n in metrics] if subset else names
    if list(metrics) != expected:
        what = "BENCHMARK.json per_layer names" if subset else str(names)
        raise LedgerError(f"metrics must be {what}, in that order")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"unit", "parent", "change"}:
            raise LedgerError(f"{name}: keys must be unit, parent, change")
        if metric["unit"] != UNITS[name]:
            raise LedgerError(f"{name}: unit must be {UNITS[name]!r}")
        for side in ("parent", "change"):
            q = metric[side]
            if not isinstance(q, dict) or set(q) != {"q1", "median", "q3"}:
                raise LedgerError(f"{name}.{side}: keys must be q1, median, q3")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in q.values()):
                raise LedgerError(f"{name}.{side}: quartiles must be numbers")
            if not q["q1"] <= q["median"] <= q["q3"]:
                raise LedgerError(f"{name}.{side}: needs q1 <= median <= q3")


def check_count(value, key, low):
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise LedgerError(f"{key} must be an integer >= {low}")


def check_line(entry):
    if not isinstance(entry, dict) or set(entry) - {"layers"} != KEYS:
        raise LedgerError(f"keys must be {sorted(KEYS)}, optionally with layers")
    for side in ("parent", "change"):
        if not isinstance(entry[side], str) or not SHA.match(entry[side]):
            raise LedgerError(f"{side} is not a commit hash")
    if entry["workload"] not in WORKLOADS:
        raise LedgerError(f"unknown workload {entry['workload']!r}")
    for key, low in (("seed", 0), ("runs", 2), ("nproc", 1)):
        check_count(entry[key], key, low)
    if not isinstance(entry["simd"], str) or "/" not in entry["simd"]:
        raise LedgerError("simd must be perfbench's isa/backend")
    check_quartiles(entry["metrics"], END_TO_END)
    if "layers" in entry:
        layers = entry["layers"]
        if not isinstance(layers, dict) or set(layers) != {"runs", "metrics"}:
            raise LedgerError("layers: keys must be runs, metrics")
        check_count(layers["runs"], "layers.runs", 2)
        check_quartiles(layers["metrics"], PER_LAYER, subset=True)


def check(path):
    lines = path.read_text().splitlines() if path.exists() else []
    if not lines:
        raise LedgerError(f"{path}: missing or empty ledger")
    for number, line in enumerate(lines, 1):
        try:
            check_line(json.loads(line))
        except (json.JSONDecodeError, LedgerError) as e:
            raise LedgerError(f"{path}:{number}: {e}")
    return len(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", type=pathlib.Path, default=LEDGER)
    sub = parser.add_subparsers(dest="mode", required=True)
    append = sub.add_parser("append", help="add one line per workload")
    append.add_argument("--parent", required=True, help="parent commit hash")
    append.add_argument("--change", required=True, help="change commit hash")
    append.add_argument("--parent-out", nargs="+", required=True)
    append.add_argument("--change-out", nargs="+", required=True)
    append.add_argument("--parent-trace", nargs="+", default=[],
                        help="traced runs' stdout (--trace 1)")
    append.add_argument("--change-trace", nargs="+", default=[])
    sub.add_parser("check", help="validate every line")
    args = parser.parse_args()
    try:
        if args.mode == "append":
            lines = ledger_lines(args.parent, args.change, args.parent_out,
                                 args.change_out, args.parent_trace,
                                 args.change_trace)
            for entry in lines:
                check_line(entry)
            with open(args.ledger, "a") as ledger:
                for entry in lines:
                    ledger.write(json.dumps(entry) + "\n")
            print(f"perf_ledger: appended {len(lines)} line(s) to {args.ledger}")
        else:
            print(f"perf_ledger: {check(args.ledger)} line(s) ok in {args.ledger}")
    except LedgerError as e:
        sys.exit(f"perf_ledger: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
