"""wignerlab benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload identity-batch --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports wignerlab from its ``src``.
A run times ``import wignerlab`` in fresh interpreters and sets the
workload up, several times each (``setup_s`` adds the two medians), then
repeats whole rounds of its operations while they fit in ``--seconds``;
``wall_s`` adds up each operation's median time over those rounds.  Times
are scaled to a reference machine speed (see ``speed.py``), except on the
workload whose work the speed kernel does not follow.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs traced rounds, then one untraced round, and reports the per-layer
metrics with the tracing overhead, writing the spans to ``perfbench/out``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("identity-batch", "haar-averaging", "crossed-products", "cli-examples")
# single-threaded kernels: steadier timings on a small shared machine, and
# never more threads than cores
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "WIGNERLAB_THREADS": "1"}
SETUP_REPEATS = 5
IMPORT_TIMER = ("import time; t = time.perf_counter(); import wignerlab; "
                "print(time.perf_counter() - t)")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import wignerlab from this checkout's src, and from nowhere else."""
    if not (SRC / "wignerlab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no wignerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wignerlab

    if Path(wignerlab.__file__).resolve().parent != SRC / "wignerlab":
        raise SystemExit(f"run.py: imported wignerlab from {wignerlab.__file__}, not {SRC}")


def fresh_import_seconds() -> float:
    """A fresh interpreter's own ``import wignerlab`` time, at reference speed."""
    import speed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc, seconds, scaled = speed.timed(lambda: subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True))
    return float(proc.stdout) * scaled / seconds


def run_rounds(workload, seconds: float, tracer=None) -> list:
    """Whole rounds: the first, then another while the median round so far
    still fits in ``seconds``."""
    from workloads import run_op

    rounds, walls = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(walls) <= seconds:
        began = time.perf_counter()
        results = []
        for op in workload.operations():
            span = tracer.open(f"op {op.curve or op.label}") if tracer and not op.capped else None
            try:
                results.append(run_op(op))
            finally:
                if span is not None:
                    tracer.close(span)
        rounds.append(results)
        walls.append(time.perf_counter() - began)
    return rounds


def round_wall(rounds, scaled: bool = True) -> float:
    """One round, each operation at its median, at reference speed or not."""
    from workloads import round_sum

    return round_sum(rounds, lambda r: None if r.capped else r.scaled if scaled else r.seconds)


def report_line(name, value, unit) -> str:
    return f"  {name:<40} {value:>14.6g} {unit}"


def run_one(args) -> dict:
    import_program()
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import_s = statistics.median(fresh_import_seconds() for _ in range(SETUP_REPEATS))
        setup_s = import_s + statistics.median(
            workload.setup_seconds() for _ in range(SETUP_REPEATS))
        setup_tracer = traced_setup(workload) if args.trace else None
        workload.reference()
        if args.trace:
            return traced(args, workload, setup_tracer)
        rounds = run_rounds(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "setup_s": setup_s,
        "wall_s": round_wall(rounds, workload.scaled),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    info = {"import_s": (import_s, "s"), "wall_unscaled_s": (round_wall(rounds, False), "s"),
            **workload.info(rounds)}
    print_summary(args, rounds, [(n, metrics[n], u) for n, u in END_TO_END],
                  [(n, v, u) for n, (v, u) in info.items()])
    return result_doc(rounds, {n: (metrics[n], u) for n, u in END_TO_END})


def traced_setup(workload):
    """One more set-up, traced: the rep constructors and the sampling done
    before the rounds show in the per-layer metrics."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        tracer.call("op setup", workload.setup_seconds)
    finally:
        tracer.uninstall()
    return tracer


def traced(args, workload, setup_tracer) -> dict:
    import layers
    from tracing import Tracer

    # the CLI runs in-process in both parts, so their difference is the tracing
    workload.in_process = True
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        rounds = run_rounds(workload, args.seconds, tracer)
    finally:
        tracer.uninstall()
    # after the traced rounds, which take the warm-up of first calls
    untraced = run_rounds(workload, 0.0)
    extra = dict(workload.layer_extras())
    extra["bench.trace_overhead_s"] = (round_wall(rounds, workload.scaled)
                                       - round_wall(untraced, workload.scaled))
    values = layers.per_layer([(setup_tracer, 1), (tracer, len(rounds))], extra)
    units = dict(layers.PER_LAYER)
    curves = curve_rows(setup_tracer) + curve_rows(tracer)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                        "per_layer": values, "curves": curves})
    print_summary(args, rounds + untraced,
                  [(n, v, units[n]) for n, v in values.items()], [])
    print("  per operation (median over traced calls): wall_s, then the largest self times")
    for row in curves:
        tops = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:3]
        peak = "".join(f" {k}.peak_mb={v:.1f}" for k, v in row["peak_mb"].items())
        print(f"    {row['name']:<44} {row['wall_s']:9.4f}  "
              + " ".join(f"{k}={v:.4f}" for k, v in tops) + peak)
    print(f"  spans written to {path.relative_to(ROOT)}")
    return result_doc(rounds + untraced, {n: (values[n], units[n]) for n in values})


def curve_rows(tracer) -> list[dict]:
    """Per operation (or curve point): median wall time, self time per layer, peak MB."""
    by_label: dict[str, list] = {}
    for row in tracer.roots_breakdown():
        by_label.setdefault(row["name"][3:], []).append(row)
    out = []
    for label, rows in by_label.items():
        layers_seen = {k for r in rows for k in r["self_s"] if not k.startswith("op ")}
        out.append({
            "name": label,
            "wall_s": statistics.median(r["wall_s"] for r in rows),
            "self_s": {k: statistics.median(r["self_s"].get(k, 0.0) for r in rows)
                       for k in sorted(layers_seen)},
            "peak_mb": {k: max(r["peak_mb"].get(k, 0.0) for r in rows)
                        for k in sorted({k for r in rows for k in r["peak_mb"]})},
        })
    return out


def print_summary(args, rounds, metrics, info) -> None:
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.failed]
    wrong = [r for r in results if r.problem]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{len(results)} attempted, {len(failed)} failed, correct={not wrong}")
    for label in sorted({r.label for r in failed}):
        print(f"  failed: {label}")
    for r in wrong:
        print(f"  WRONG OUTPUT: {r.label}: {r.problem}")
    for name, value, unit in metrics:
        print(report_line(name, value, unit))
    for name, value, unit in info:
        print(report_line(f"({args.workload}) {name}", value, unit))


def result_doc(rounds, metrics: dict) -> dict:
    results = [r for rnd in rounds for r in rnd]
    return {
        "correct": not any(r.problem for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    docs = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: workload {name} exited with {proc.returncode}")
        docs[name] = json.loads(lines[-1])
    print("workload            attempted  failed  correct")
    for name, doc in docs.items():
        print(f"{name:<20}{doc['attempted']:>9}{doc['failed']:>8}  {doc['correct']}")
    return {
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {f"{name}.{m}": v for name, d in docs.items() for m, v in d["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREADS)
    doc = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
