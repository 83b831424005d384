#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Usage, from the repository root:

    python3 pipebench/steadiness.py --runs 10 --seed-base 100 --sets 2 \
        [--workloads collector_zipf,lookup_mixed] [--raw out.json]

Set s uses seeds seed-base + 1000 * s + i for run i; the runs of the sets
are interleaved (set 1 run 1, set 2 run 1, set 1 run 2, ...) so that a
drift of the host does not fall on one set alone. For every end-to-end
metric of BENCHMARK.json the script prints, per set, the median, the
quartiles (statistics.quantiles(values, n=4)), min and max, and the
interquartile spread as a share of the median beside the metric's bound;
with two or more sets it also prints how much worse each later set's
median is than the first set's.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(cfg, workload, seed):
    cmd = [sys.executable, str(ROOT / "pipebench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(cfg["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("conditions "):
            values["host_probe_ms"] = json.loads(line[11:])["host_probe_ms"]
    return values


def print_set(cfg, workload, seeds, runs):
    print(f"\n### `{workload}` (seeds {seeds[0]}..{seeds[-1]})\n")
    print("| metric | unit | median | q1 | q3 | min | max "
          "| IQR/median | bound | ÷ bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for m in cfg["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        print(f"| `{m['name']}` | {m['unit']} | {q2:.4g} | {q1:.4g} "
              f"| {q3:.4g} | {min(values):.4g} | {max(values):.4g} "
              f"| {spread:.3f} | {m['bound']} | {spread / m['bound']:.2f} |")
    probes = [r["host_probe_ms"] for r in runs]
    print(f"\nHost probe (fixed single-thread loop): median "
          f"{statistics.median(probes):.1f} ms, range {min(probes):.1f}–"
          f"{max(probes):.1f}.")


def print_comparison(cfg, workload, sets):
    print(f"\n### `{workload}`: later sets against set 1\n")
    print("| metric | median, set 1 | later medians | worse by | bound |")
    print("|---|---|---|---|---|")
    for m in cfg["end_to_end"]:
        first = statistics.median(r[m["name"]] for r in sets[0])
        later = [statistics.median(r[m["name"]] for r in s) for s in sets[1:]]
        sign = 1 if m["better"] == "lower" else -1
        worse = [sign * (v - first) / first for v in later]
        print(f"| `{m['name']}` | {first:.4g} "
              f"| {', '.join(f'{v:.4g}' for v in later)} "
              f"| {', '.join(f'{w:+.3f}' for w in worse)} | {m['bound']} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--raw", default="", help="write every run's metrics here")
    args = ap.parse_args()

    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in cfg["workloads"]])
    raw = {}
    for workload in workloads:
        seeds = [[args.seed_base + 1000 * s + i for i in range(args.runs)]
                 for s in range(args.sets)]
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                sets[s].append(run_once(cfg, workload, seeds[s][i]))
            print(f"{workload} run {i + 1}/{args.runs} done", file=sys.stderr)
        raw[workload] = sets
        for s in range(args.sets):
            print_set(cfg, workload, seeds[s], sets[s])
        if args.sets > 1:
            print_comparison(cfg, workload, sets)
        sys.stdout.flush()
    if args.raw:
        pathlib.Path(args.raw).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
