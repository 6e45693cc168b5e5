"""Benchmark of the two-stage FDG pipeline, driven from outside the package.

    python3 fdgbench/run.py --workload cell-full --seed 0 --seconds 36 --trace 0

One process, single-threaded BLAS.  The run builds the frozen encoder, the
seeded world and every leave-one-out split (set-up), then runs whole
rounds of cells, one cell per holdout, for about ``--seconds``.  Every cell is
checked (see ``checks``); a cell that raises or fails a check counts as
failed.

Set-up and cell times are CPU times scaled to a reference machine
speed sampled around and inside each of them (see ``calibrate``); the result file
keeps the CPU and wall times as well.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs half the time untraced and half with every public
function of the package wrapped in a span, and prints the per-layer
metrics, averaged per traced cell, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable summary
goes to standard error, the full result to ``fdgbench/out/``.
"""

from __future__ import annotations

import os

# Must precede the first numpy import: the benchmark is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "fdgbench" / "out"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from fdgbench import calibrate, checks, tracing, workloads  # noqa: E402

# Set-up is short (about 0.1 s), so it is repeated and the median reported.
SETUP_REPEATS = 7
# Spans recorded during set-up, not in any cell.
SETUP_SPANS = ("data.generate_world",)


@dataclass
class Cell:
    id: str
    holdout: int
    traced: bool
    seconds: float = 0.0
    cpu_s: float = 0.0
    scaled_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    accuracy: float | None = None
    payload_bytes: int | None = None
    raised: bool = False
    failures: list = field(default_factory=list)


def purge_package() -> None:
    for name in [n for n in sys.modules if n == "fedstyle" or n.startswith("fedstyle.")]:
        del sys.modules[name]


def timed_setups(workload, seed: int) -> tuple[workloads.Setup, calibrate.Timer]:
    """Set up SETUP_REPEATS times from a fresh import; keep the last.
    Returns it with the timer that holds the time of each set-up."""
    timer = calibrate.Timer()
    for _ in range(SETUP_REPEATS):
        purge_package()
        setup = timer(lambda: workloads.build_setup(workload, seed))
    return setup, timer


def run_one(setup, holdout: int, cell_id: str, tracer, timer: calibrate.Timer) -> Cell:
    cell = Cell(id=cell_id, holdout=holdout, traced=tracer is not None)
    digest = setup.encoder.parameter_digest()
    if tracer is not None:
        tracer.cell = cell_id
    try:
        out = timer(lambda: workloads.run_cell(setup, holdout))
    except Exception as exc:  # a cell that raises is a failed cell; the run goes on
        traceback.print_exc()
        cell.raised = True
        cell.failures.append(f"raised {exc!r}")
        return cell
    finally:
        if tracer is not None:
            tracer.cell = None
    cell.stage_s = out.stage_s
    cell.accuracy = out.accuracy
    cell.payload_bytes = out.result.ledger.total_payload_bytes()
    cell.failures = checks.check_cell(setup, holdout, out, digest)
    return cell


def run_rounds(setup, seconds: float, first_id: int, tracer=None, inside: bool = True) -> list[Cell]:
    """Whole rounds of one cell per holdout, at least one, stopping at the
    round that ends nearest to ``seconds``.  A ``cell-full`` round takes
    about 33 s, so stopping at the first round past ``seconds`` could
    double the run.  ``inside`` is passed to the timer."""
    cells = []
    timer = calibrate.Timer(inside)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for holdout in range(len(setup.splits)):
            cells.append(run_one(setup, holdout, f"c{first_id + len(cells)}", tracer, timer))
        now = time.perf_counter()
        if seconds - (now - start) < (now - round_start) / 2:
            break
    for cell, wall, cpu, scaled in zip(cells, timer.wall, timer.seconds, timer.scaled()):
        cell.seconds, cell.cpu_s, cell.scaled_s = wall, cpu, scaled
    return cells


def median_scaled_s(cells: list[Cell]) -> float | None:
    """Median scaled time of the cells that did not raise; None if all did."""
    done = [c.scaled_s for c in cells if not c.raised]
    return statistics.median(done) if done else None


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(setup_scaled: list[float], cells: list[Cell]) -> dict[str, float]:
    done = [c for c in cells if not c.raised]
    median = median_scaled_s(cells)
    return {
        "setup_s": statistics.median(setup_scaled),
        # 60 over the median scaled cell time: steadier than a count over the run
        # on a shared machine, and the cells of a workload are the same size
        "cells_per_min": 60.0 / median if median else 0.0,
        "wire_payload_bytes_per_cell": statistics.fmean(c.payload_bytes for c in done) if done else 0.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


# metric suffix -> field of tracing.SpanStats
STAT_FIELDS = {"calls": "calls", "s": "seconds", "self_s": "self_seconds", "rows": "amount", "bytes": "amount"}


def per_layer(spec: list[dict], tracer, setup, cells: list[Cell], overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics averaged per traced cell, and the split of each
    stage by layer.  Runs the traced checks, adding failures to the cells."""
    traced = [c for c in cells if c.traced and not c.raised]
    count = max(len(traced), 1)
    selfs = tracer.self_times()
    samples = []
    for cell in traced:
        stages = tracing.stage_split(tracer, selfs, {cell.id})
        failures, cell_samples = checks.check_trace(tracer, stages, setup, cell.holdout, cell.id, cell.stage_s)
        cell.failures += failures
        samples.append(cell_samples)
    stats = tracing.cell_stats(tracer, selfs, {c.id for c in traced})
    setup_stats = tracing.cell_stats(tracer, selfs, {"setup"})
    metrics = {}
    for item in spec:
        name = item["name"]
        span, _, kind = name.rpartition(".")
        absent = span in tracer.absent
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "federation.train_samples":
            absent = not samples or None in samples
            value = 0 if absent else sum(samples) / count
        else:
            source = setup_stats if span in SETUP_SPANS else stats
            value = getattr(source.get(span, tracing.SpanStats()), STAT_FIELDS[kind]) / (
                1 if span in SETUP_SPANS else count
            )
        metrics[name] = {"value": value, "unit": item["unit"]}
        if absent:
            metrics[name]["absent"] = True
    stages = tracing.stage_split(tracer, selfs, {c.id for c in traced})
    for entry in stages.values():
        entry["seconds"] /= count
        for key in ("layers", "functions"):
            entry[key] = {k: v / count for k, v in sorted(entry[key].items(), key=lambda kv: -kv[1])}
    return metrics, stages


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def report(result: dict) -> None:
    err = sys.stderr
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} cells, {result['failed']} failed", file=err)
    for cell in result["cells"]:
        if cell["failures"]:
            print(f"  {cell['id']} holdout {cell['holdout']}: " + "; ".join(cell["failures"]), file=err)
    for stage, entry in result.get("stages", {}).items():
        print(f"  {stage}: {entry['seconds']:.4f} s/cell", file=err)
        for layer, seconds in entry["layers"].items():
            print(f"    {layer:16s} self {seconds:.4f} s ({100 * seconds / entry['seconds']:.1f}%)", file=err)
    for name, metric in result["metrics"].items():
        flag = "  (absent)" if metric.get("absent") else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{flag}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedstyle" / "__init__.py").is_file():
        print(f"fedstyle sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    setup, setup_timer = timed_setups(workload, args.seed)
    import fedstyle

    if Path(fedstyle.__file__).resolve().parent != SRC / "fedstyle":
        print(f"fedstyle imported from {fedstyle.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment()}
    if args.trace == 0:
        cells = run_rounds(setup, args.seconds, 0)
        metrics = end_to_end(setup_timer.scaled(), cells)
        units = {item["name"]: item["unit"] for item in spec["end_to_end"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
        result["setup_wall_s"] = quartiles(setup_timer.wall)
        result["setup_cpu_s"] = quartiles(setup_timer.seconds)
        result["setup_scaled_s"] = quartiles(setup_timer.scaled())
    else:
        # no speed samples inside the cells: the spans would include them
        untraced = run_rounds(setup, args.seconds / 2, 0, inside=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.cell = "setup"
            workloads.build_setup(workload, args.seed)
            tracer.cell = None
            traced = run_rounds(setup, args.seconds / 2, len(untraced), tracer, inside=False)
        finally:
            tracer.cell = None
            tracer.uninstall()
        cells = untraced + traced
        reference, traced_median = median_scaled_s(untraced), median_scaled_s(traced)
        overhead = 100.0 * (traced_median / reference - 1.0) if reference and traced_median else 0.0
        metrics, result["stages"] = per_layer(spec["per_layer"], tracer, setup, cells, overhead)
        result["absent"] = tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    result["cell_wall_s"] = quartiles([c.seconds for c in cells if not c.raised] or [0.0])
    result["cell_cpu_s"] = quartiles([c.cpu_s for c in cells if not c.raised] or [0.0])
    result["cell_scaled_s"] = quartiles([c.scaled_s for c in cells if not c.raised] or [0.0])
    result["cells"] = [asdict(c) for c in cells]
    result["attempted"] = len(cells)
    result["failed"] = sum(1 for c in cells if c.raised or c.failures)
    result["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )
    report(result)
    print(json.dumps({
        "correct": not any(c.failures and not c.raised for c in cells),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
