"""Run the benchmark over several seeds and summarise it into one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_x.json \
        [--trace-seed 1] [--compare OLD.json]

For every workload in BENCHMARK.json, runs ``run.py`` once per seed
(untraced, one after another, with ``run_seconds`` from BENCHMARK.json)
and reports each end-to-end metric's median, quartiles and quartile
spread as a share of the median, flagged when the spread exceeds a third
of the metric's bound. ``--trace-seed`` adds one traced run per workload for the
per-layer table. ``--compare`` checks a previous summary of the same
code: medians within each metric's bound and identical artifact
SHA-256s for every seed both files ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    record = json.loads(lines[-2].split(" ", 1)[1])
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record,
            "run_wall_s": time.perf_counter() - start}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    seconds = bench["run_seconds"]

    summary: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, seconds, 0)
            runs.append(run)
            ok &= run["result"]["correct"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()),
                flush=True)
        stats = {}
        for name, bound in bounds.items():
            stats[name] = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats[name]["bound"] = bound
            steady = stats[name]["spread"] < bound / 3
            ok &= steady
            print(f"  {workload} {name}: median {stats[name]['median']:.4g} "
                  f"spread {stats[name]['spread']:.3%} (bound {bound:.0%})"
                  + ("" if steady else "  <-- above a third of the bound"), flush=True)
        entry = {"end_to_end": stats, "runs": runs,
                 "run_wall_s_max": max(r["run_wall_s"] for r in runs)}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, seconds, 1)
            ok &= entry["traced"]["result"]["correct"]
        summary["workloads"][workload] = entry

    if args.compare:
        old = json.loads(args.compare.read_text())["workloads"]
        for workload, entry in summary["workloads"].items():
            if workload not in old:
                continue
            for name, stats in entry["end_to_end"].items():
                before = old[workload]["end_to_end"][name]["median"]
                worse = ((before - stats["median"]) / before if name in higher
                         else (stats["median"] - before) / before)
                within = worse <= stats["bound"]
                ok &= within
                print(f"  compare {workload} {name}: {before:.4g} -> {stats['median']:.4g} "
                      f"({worse:+.2%} worse)" + ("" if within else "  <-- beyond the bound"))
            old_sha = {r["seed"]: (r["record"]["setup_sha256"], r["record"]["iteration0_sha256"])
                       for r in old[workload]["runs"]}
            for run in entry["runs"]:
                seed = run["seed"]
                if seed in old_sha:
                    same = old_sha[seed] == (run["record"]["setup_sha256"],
                                             run["record"]["iteration0_sha256"])
                    ok &= same
                    if not same:
                        print(f"  compare {workload} seed {seed}: artifact SHA-256s differ")

    summary["all_checks_passed"] = bool(ok)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; all checks passed: {bool(ok)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
