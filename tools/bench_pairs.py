"""Paired benchmark runs of two checkouts, written to a BENCH_*.json file.

Runs `perfbench/run.py` of a base checkout and of a changed one on the same
seeds, alternating which side goes first, and records the JSON result line
each run prints, both sides, with a per-metric summary: each side's
quartiles, how many pairs the change won and a verdict (see `verdict`), and
each side's attempted and failed operations.  Each run also keeps the
per-job lines it prints before that line (`name  scaled median X ms  xN`)
under "jobs", summarized per job under "job_summary" the same way, so that
a record shows which commands moved.  Results for other workloads
already in the output file are kept, and their summaries recomputed, so one
file can collect several workloads:

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload cli_gate --pairs 10 --seconds 30 --out BENCH_7.json

With `--trace 1` the runs report per-layer metrics, filed under
"<workload> --trace 1".  A run that fails ends the tool with exit 1, after
its side, seed, exit code and the end of its stderr, and writes no file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

STDERR_LINES = 20  # of a failed run, written before giving up
JOB_LINE_RE = re.compile(r"\s*(\S.*?)\s+scaled median\s+(\S+) ms(?:\s+x\d+)?")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one perfbench run, decoded, with the scaled
    median of each job line before it under "jobs"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["jobs"] = {m[1]: {"value": float(m[2]), "unit": "ms"}
                      for m in map(JOB_LINE_RE.fullmatch, lines) if m}
    return result


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(base: list[float], change: list[float], wins: int, lower: bool,
            bound: float | None) -> str:
    """`gain` when the change won at least 9 pairs in 10, of at least 10,
    and its median is better by more than the base's interquartile range;
    `regression` when its median is worse than the base's by more than
    `bound` (a fraction of the base median); `unresolved` when the base's
    own interquartile range, as a fraction of its median, exceeds `bound`,
    unless every run of the change reads better than every run of the base;
    else `no change`.  A metric with no bound is only ever `gain` or
    `no change`."""
    q1, b_median, q3 = quartiles(base)
    c_median = quartiles(change)[1]
    gained = b_median - c_median if lower else c_median - b_median
    if len(base) >= 10 and wins >= 0.9 * len(base) and gained > q3 - q1:
        return "gain"
    if bound is not None and b_median:
        if -gained / abs(b_median) > bound:
            return "regression"
        all_better = max(change) < min(base) if lower else min(change) > max(base)
        if (q3 - q1) / abs(b_median) > bound and not all_better:
            return "unresolved"
    return "no change"


def summary(pairs: list[dict], declared: dict[str, dict], part: str = "metrics") -> dict:
    """Per metric, or per job with `part="jobs"`: both sides' quartiles, in
    how many pairs the change was better in the direction BENCHMARK.json
    gives (lower when it gives none), and the verdict."""
    out = {}
    runs = [p[side].get(part, {}) for p in pairs for side in ("base", "change")]
    for name in [n for n in runs[0] if all(n in run for run in runs)]:
        base = [p["base"][part][name]["value"] for p in pairs]
        change = [p["change"][part][name]["value"] for p in pairs]
        spec = declared.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {
            "base_quartiles": quartiles(base),
            "change_quartiles": quartiles(change),
            "better": "lower" if lower else "higher",
            "change_wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(base, change, wins, lower, spec.get("bound")),
        }
    return out


def outcomes(pairs: list[dict]) -> dict:
    """Operations attempted and failed over all runs of each side."""
    return {
        side: {key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")}
        for side in ("base", "change")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:  # a summary needs at least one pair
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.base if side == "base" else args.change
            try:
                pair[side] = run_once(checkout, args.workload, seed, args.seconds, args.trace)
            except subprocess.CalledProcessError as exc:
                print(f"{args.workload} seed {seed}: the {side} run exited {exc.returncode}; "
                      "the end of its stderr:", *exc.stderr.splitlines()[-STDERR_LINES:],
                      sep="\n", file=sys.stderr)
                return 1
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: done", file=sys.stderr)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    key = args.workload + (" --trace 1" if args.trace else "")
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[key] = {"seconds": args.seconds, "pairs": pairs}
    for entry in results.values():
        entry["summary"] = summary(entry["pairs"], declared)
        entry["job_summary"] = summary(entry["pairs"], {}, "jobs")
        entry["outcomes"] = outcomes(entry["pairs"])
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
