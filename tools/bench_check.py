#!/usr/bin/env python3
"""Bench regression gate: compare fresh BENCH_*.json artifacts against
committed baselines.

Each baseline file in --baselines names one artifact and a list of checks
over dot-separated paths into its JSON (numeric components index arrays):

    {
      "artifact": "BENCH_obs_overhead.json",
      "checks": [
        {"path": "overhead.tsdb_health_e2e.ci_hi", "max": 3.0},
        {"path": "overhead.metrics.a_per_s", "min": 100000},
        {"path": "budget_pct", "equals": 3.0},
        {"path": "rows", "len": 9}
      ]
    }

Check kinds: "max" / "min" (inclusive numeric bounds), "equals" (numeric
with optional "tol", default exact), "len" (container length). Thresholds
are chosen to be machine-robust — ratios, budgets and generous structural
floors rather than absolute wall-clock numbers.

Exit status is non-zero when any check fails or an expected artifact is
missing, so CI can gate on it directly. With --allow-missing, a missing
path inside an artifact downgrades to "skip" instead of failing: benches
emit hardware-counter keys (cycles_per_op, ipc, ...) only on machines whose
PMU is exposed, and CI containers typically run without one. A missing
artifact file still fails, so a deleted or renamed bench cannot pass the
gate silently. Malformed checks (bad bounds, wrong types) fail either way.
"""

import argparse
import json
import pathlib
import sys


def resolve(doc, path):
    """Walk `doc` along a dot-separated path; numeric parts index arrays."""
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(part)
    return node


def run_check(doc, check, allow_missing=False):
    """Returns (status, message) for one check against one artifact.
    Status is "ok", "FAIL", or "skip" (missing path under --allow-missing).
    """
    path = check["path"]
    try:
        value = resolve(doc, path)
    except (KeyError, IndexError, ValueError):
        if allow_missing:
            return "skip", f"{path}: missing from artifact (allowed)"
        return "FAIL", (f"{path}: missing from artifact "
                        f"(re-run with --allow-missing to skip new keys)")

    if "len" in check:
        want = check["len"]
        have = len(value)
        ok = have == want
        return ("ok" if ok else "FAIL",
                f"{path}: len {have} {'==' if ok else '!='} {want}")

    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "FAIL", f"{path}: not numeric ({value!r})"

    if "equals" in check:
        want = check["equals"]
        tol = check.get("tol", 0.0)
        ok = abs(value - want) <= tol
        return ("ok" if ok else "FAIL",
                f"{path}: {value:g} == {want:g} (tol {tol:g})")

    parts = []
    ok = True
    if "min" in check:
        ok &= value >= check["min"]
        parts.append(f">= {check['min']:g}")
    if "max" in check:
        ok &= value <= check["max"]
        parts.append(f"<= {check['max']:g}")
    if not parts:
        return "FAIL", f"{path}: baseline check has no constraint"
    return ("ok" if ok else "FAIL",
            f"{path}: {value:g} {' and '.join(parts)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", required=True,
                        help="directory of committed baseline JSON files")
    parser.add_argument("--artifacts", required=True,
                        help="directory holding fresh BENCH_*.json output")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip (instead of fail) paths missing from an "
                             "artifact, e.g. hardware-counter keys on "
                             "machines without an exposed PMU; a missing "
                             "artifact file still fails")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baselines)
    artifact_dir = pathlib.Path(args.artifacts)
    baselines = sorted(baseline_dir.glob("*.json"))
    if not baselines:
        print(f"bench_check: no baselines under {baseline_dir}",
              file=sys.stderr)
        return 2

    failures = 0
    skipped = 0
    for baseline_path in baselines:
        with open(baseline_path) as f:
            baseline = json.load(f)
        for key in ("artifact", "checks"):
            if key not in baseline:
                print(f"FAIL {baseline_path.name}: baseline is missing "
                      f"required key {key!r}")
                failures += 1
                baseline = None
                break
        if baseline is None:
            continue
        artifact_path = artifact_dir / baseline["artifact"]
        if not artifact_path.exists():
            print(f"FAIL {baseline_path.name}: artifact "
                  f"{baseline['artifact']} not found in {artifact_dir}")
            failures += 1
            continue
        with open(artifact_path) as f:
            artifact = json.load(f)
        for check in baseline["checks"]:
            if "path" not in check:
                print(f"FAIL {baseline['artifact']}: check {check!r} has "
                      f"no 'path' key")
                failures += 1
                continue
            status, message = run_check(artifact, check, args.allow_missing)
            note = f"  [{check['note']}]" if "note" in check else ""
            print(f"{status:4} {baseline['artifact']}: {message}{note}")
            failures += 1 if status == "FAIL" else 0
            skipped += 1 if status == "skip" else 0

    if failures:
        print(f"bench_check: {failures} check(s) failed", file=sys.stderr)
        return 1
    tail = f" ({skipped} skipped)" if skipped else ""
    print(f"bench_check: all checks passed{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
