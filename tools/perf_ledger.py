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
significant digits.

    python3 tools/perf_ledger.py append --parent SHA --change SHA \\
        --parent-out P1.txt P2.txt ... --change-out C1.txt C2.txt ...
    python3 tools/perf_ledger.py check

Each *.txt is the full stdout of one untraced `perfbench/run.py` run: its
header line ("perfbench <workload> (seed N, end-to-end run; nproc N, SIMD
isa/backend, ...)") and its last line, the result object.  `append` groups
the runs by workload, checks that both sides ran the same workload, seed,
nproc and SIMD line the same number of times, and appends one line per
workload.  `check` validates every line of the ledger and exits nonzero on
the first line that breaks the schema.
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
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
HEADER = re.compile(r"^perfbench (\S+) \(seed (\d+), end-to-end run; "
                    r"nproc (\d+), SIMD ([^,]+),")
SHA = re.compile(r"^[0-9a-f]{7,40}$")
KEYS = {"parent", "change", "workload", "seed", "runs", "nproc", "simd", "metrics"}


class LedgerError(Exception):
    pass


def read_run(path):
    """(workload, seed, nproc, simd, {metric: value}) of one run's stdout."""
    lines = pathlib.Path(path).read_text().strip().splitlines()
    headers = [m for m in map(HEADER.match, lines) if m]
    if len(headers) != 1:
        raise LedgerError(f"{path}: expected one untraced perfbench header line")
    workload, seed, nproc, simd = headers[0].groups()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise LedgerError(f"{path}: last line is not a result object ({e})")
    if result.get("correct") is not True:
        raise LedgerError(f"{path}: the run's output checks failed")
    metrics = result.get("metrics", {})
    missing = [name for name in END_TO_END if name not in metrics]
    if missing:
        raise LedgerError(f"{path}: missing end-to-end metrics {missing}")
    values = {name: float(metrics[name]["value"]) for name in END_TO_END}
    return workload, int(seed), int(nproc), simd.strip(), values


def summary(values):
    """Quartiles to 6 significant digits (rounding keeps their order)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": float(f"{q1:.6g}"), "median": float(f"{median:.6g}"),
            "q3": float(f"{q3:.6g}")}


def ledger_lines(parent, change, parent_paths, change_paths):
    sides = {"parent": {}, "change": {}}
    for side, paths in (("parent", parent_paths), ("change", change_paths)):
        for path in paths:
            workload, seed, nproc, simd, values = read_run(path)
            sides[side].setdefault(workload, []).append((seed, nproc, simd, values))
    if set(sides["parent"]) != set(sides["change"]):
        raise LedgerError("parent and change runs cover different workloads")
    lines = []
    for workload in sorted(sides["parent"]):
        p_runs, c_runs = sides["parent"][workload], sides["change"][workload]
        if len(p_runs) != len(c_runs) or len(p_runs) < 2:
            raise LedgerError(f"{workload}: need the same number (>= 2) of runs "
                              f"per side, got {len(p_runs)} and {len(c_runs)}")
        setups = {run[:3] for run in p_runs + c_runs}
        if len(setups) != 1:
            raise LedgerError(f"{workload}: runs differ in seed, nproc or SIMD: "
                              f"{sorted(setups)}")
        seed, nproc, simd = setups.pop()
        metrics = {}
        for name in END_TO_END:
            metrics[name] = {
                "unit": UNITS[name],
                "parent": summary([run[3][name] for run in p_runs]),
                "change": summary([run[3][name] for run in c_runs]),
            }
        lines.append({"parent": parent, "change": change, "workload": workload,
                      "seed": seed, "runs": len(p_runs), "nproc": nproc,
                      "simd": simd, "metrics": metrics})
    return lines


def check_line(entry):
    if not isinstance(entry, dict) or set(entry) != KEYS:
        raise LedgerError(f"keys must be {sorted(KEYS)}")
    for side in ("parent", "change"):
        if not isinstance(entry[side], str) or not SHA.match(entry[side]):
            raise LedgerError(f"{side} is not a commit hash")
    if entry["workload"] not in WORKLOADS:
        raise LedgerError(f"unknown workload {entry['workload']!r}")
    for key, low in (("seed", 0), ("runs", 2), ("nproc", 1)):
        value = entry[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise LedgerError(f"{key} must be an integer >= {low}")
    if not isinstance(entry["simd"], str) or "/" not in entry["simd"]:
        raise LedgerError("simd must be perfbench's isa/backend")
    metrics = entry["metrics"]
    if not isinstance(metrics, dict) or list(metrics) != END_TO_END:
        raise LedgerError(f"metrics must be {END_TO_END}, in that order")
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
    sub.add_parser("check", help="validate every line")
    args = parser.parse_args()
    try:
        if args.mode == "append":
            lines = ledger_lines(args.parent, args.change, args.parent_out,
                                 args.change_out)
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
