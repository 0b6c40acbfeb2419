"""Benchmark for the traitgen CLI.

    python3 perfbench/run.py --workload {train-gen,evaluate,prepare} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and driven in-process through ``traitgen.cli.main``, with BLAS
pinned to one thread. The set-up runs in a child process (this script
with ``--setup-into``), so that its memory does not count in
``peak_rss_mb``; it is repeated, spread between the timed iterations,
and the median wall time of the child is reported as ``setup_s``. Then
one untimed warm-up iteration, then closed-loop iterations until
``--seconds`` of them have passed (at least three). Timed iteration 0
must reproduce the warm-up's artifacts byte for byte.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced runs of each iteration and
reports per-layer self times and counts per traced iteration; see
``spans.py``. The last stdout line is the result object; the line before
it, prefixed ``perfbench-record``, holds the environment, sizes,
per-command timings and artifact SHA-256s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
MIN_TRACED = 2
# Largest share of a traced iteration that may fall outside every layer
# span. More means a wrapped name no longer catches the work below it.
CLI_SELF_MAX = 0.10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-gen", "evaluate", "prepare"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="workload sizes; tiny is for the smoke test")
    parser.add_argument("--setup-into", type=Path, metavar="DIR",
                        help="only run the set-up, writing into DIR (the child process)")
    return parser.parse_args(argv)


def set_up_in_child(args: argparse.Namespace, cwd: Path) -> tuple[float, dict]:
    """Run the set-up into cwd/setup in a fresh interpreter.

    Returns the child's wall time, imports included, and its operation
    counts. The directory name is the same for every repeat, so the
    manifests the commands write, and hence their SHA-256s, are too.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
            "--setup-into", "setup"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    loadavg = list(os.getloadavg())
    args = parse_args(argv)
    if not (SRC / "traitgen" / "cli.py").is_file():
        print(f"perfbench: no traitgen sources under {SRC}", file=sys.stderr)
        return 2
    envinfo.pin_threads()
    sys.path.insert(0, str(SRC))
    import traitgen

    if Path(traitgen.__file__).resolve().parent != SRC / "traitgen":
        print(f"perfbench: imported traitgen from {traitgen.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        env = envinfo.check_pin()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_at_start"] = loadavg

    import workloads as wl

    size = wl.SIZES[args.size][args.workload]
    workload = wl.WORKLOADS[args.workload](size, args.seed)
    runner = wl.Runner()
    if args.setup_into is not None:
        workload.setup(runner, args.setup_into)
        print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                          "errors": runner.errors}))
        return 0

    import spans

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    # commands get paths relative to the work directory, so the manifests they
    # write, and hence the artifact SHA-256s, match across processes and checkouts
    work = wl.fresh_dir(WORK / args.workload)
    os.chdir(work)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "size": args.size, "sizes": size, "env": env}
    try:
        # ---------------------------------------------------------- set-up
        # Repeats after the first run between timed iterations, so that
        # their median spans the machine's speed drift over the run.
        setup_repeats = 1 if args.trace else SETUP_REPEATS
        setup_walls: list[float] = []

        def set_up(cwd: Path) -> None:
            wl.fresh_dir(cwd / "setup")
            wall, counts = set_up_in_child(args, cwd)
            setup_walls.append(wall)
            runner.attempted += counts["attempted"]
            runner.failed += counts["failed"]
            runner.errors += counts["errors"]
            digest = wl.digest_tree(cwd / "setup")
            if "setup_sha256" not in record:
                record["setup_sha256"] = digest
            elif digest != record["setup_sha256"]:
                problems.append("set-up artifacts differ between repeats")

        set_up(Path("."))
        workload.use(Path("setup"))
        repeat_dir = wl.fresh_dir(Path("repeat"))

        def run_iteration(i: int, tracer=None):
            it_dir = wl.fresh_dir(Path("iter"))
            if tracer is not None:
                tracer.install()
            try:
                it = workload.iteration(runner, it_dir, i)
            finally:
                if tracer is not None:
                    tracer.restore()
            return it, wl.digest_tree(it_dir)

        _, warm_digest = run_iteration(0)
        record["iteration0_sha256"] = warm_digest

        # ----------------------------------------------------- measurement
        results, traced = [], []
        tracer = spans.Tracer() if args.trace else None
        self_totals: dict[str, float] = {}
        call_totals: dict[str, float] = {}
        worst_self = 0.0
        start, paused, i = time.perf_counter(), 0.0, 0
        while (len(results) < MIN_ITERATIONS if not args.trace else len(traced) < MIN_TRACED) \
                or time.perf_counter() - start - paused < args.seconds:
            it, digest = run_iteration(i)
            results.append(it)
            if i == 0 and digest != warm_digest:
                problems.append("iteration 0 artifacts differ from the warm-up's")
            if tracer is not None:
                t_it, t_digest = run_iteration(i, tracer)
                traced.append(t_it)
                if t_digest != digest:
                    problems.append(f"tracing changed the artifacts of iteration {i}")
                self_s, calls, roots, worst = tracer.collect()
                worst_self = min(worst_self, worst)
                accounted = sum(self_s.values())
                if abs(accounted - t_it.wall) > 0.01 * t_it.wall + 1e-3:
                    problems.append(f"self times sum to {accounted:.4f} s, traced wall "
                                    f"{t_it.wall:.4f} s")
                if roots != {"cli.self_s"}:
                    problems.append(f"spans outside traitgen.cli.main: {sorted(roots)}")
                if self_s.get("cli.self_s", 0.0) > CLI_SELF_MAX * t_it.wall:
                    problems.append(f"cli.self_s is {self_s['cli.self_s']:.4f} s of "
                                    f"{t_it.wall:.4f} s traced wall")
                for name, value in self_s.items():
                    self_totals[name] = self_totals.get(name, 0.0) + value
                for name, value in calls.items():
                    call_totals[name] = call_totals.get(name, 0) + value
            if len(setup_walls) < setup_repeats:
                paused_from = time.perf_counter()
                set_up(repeat_dir)
                paused += time.perf_counter() - paused_from
            i += 1
        while len(setup_walls) < setup_repeats:
            set_up(repeat_dir)
        record["setup_walls_s"] = setup_walls

        if worst_self < -1e-6:
            problems.append(f"negative self time {worst_self:.3g} s")
        record["iterations"] = [{"walls_s": it.walls, "tokens": it.tokens, "docs": it.docs}
                                for it in results]
        per_command = {}
        for label in results[0].walls:
            per_command[label] = {
                "wall_s_p50": median([it.walls[label] for it in results]),
                "docs_per_s_p50": median([it.docs[label] / it.walls[label] for it in results]),
            }
        record["per_command"] = per_command

        units = {m["name"]: m["unit"]
                 for m in bench["per_layer" if args.trace else "end_to_end"]}
        if tracer is None:
            metrics = {
                "tokens_per_s": median([it.tokens / it.wall for it in results]),
                "setup_s": median(setup_walls),
                # the set-up ran in children, so this covers only the imports,
                # loading and the commands of the iterations
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            n = len(traced)
            metrics = tracer.layer_metrics(
                units, self_totals, n, traced_wall=sum(t.wall for t in traced) / n,
                untraced_wall=median([it.wall for it in results]))
            record["span_calls_per_iteration"] = {k: v / n for k, v in sorted(call_totals.items())}
        if set(metrics) != set(units):
            problems.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    record["errors"] = runner.errors
    record["problems"] = problems
    for message in runner.errors + problems:
        print(f"perfbench: {message}", file=sys.stderr)
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
