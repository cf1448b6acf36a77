"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from
``src/`` and keeps its scratch stores and trace files under
``.perfbench/``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where the metrics are
the end-to-end ones with ``--trace 0`` and the per-layer ones (from a
separate, fully traced pass) with ``--trace 1``.  ``--smoke`` runs the
same workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workload and tracing modules import the package under test lazily.
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import layers, tracing, workloads  # noqa: E402


def host_block() -> Dict[str, object]:
    import numpy

    return {
        "host_cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "processes": min(2, os.cpu_count() or 1),
        "jobs": min(2, os.cpu_count() or 1),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    expect: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One benchmark invocation; returns the result plus its report."""
    plan = workloads.WORKLOADS[workload]
    if smoke:
        plan = {phase: ("smoke", 10 if phase == "http" else 1) for phase in plan}
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    host = host_block()
    host["loadavg_before"] = os.getloadavg()

    def new_run(**options) -> workloads.Run:
        return workloads.Run(
            workload=workload, seed=seed, seconds=seconds, plan=plan,
            work_dir=work_dir, expect=dict(expect or {}), **options,
        )

    report: Dict[str, object] = {"host": host}
    try:
        if not trace:
            run = new_run()
            setup = [workloads.setup_once(run, SRC) for _ in range(workloads.SETUP_REPS)]
            run.kernel = workloads.calibrate()
            workloads.run_phases(run)
            values = dict(
                run.metrics, setup_s=statistics.median(setup),
                peak_rss_mb=workloads.peak_rss_mb(),
            )
            report["unscaled"] = run.raw_metrics
            report["printed_only"] = {name: values[name] for name in workloads.PRINTED_ONLY}
            units = workloads.END_TO_END
            runs = [run]
        else:
            values, runs = traced_passes(new_run, report)
            units = layers.PER_LAYER
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    host["loadavg_after"] = os.getloadavg()
    speeds = sorted(speed for run in runs for speed in run.speeds)
    host["speed_vs_reference"] = {
        "median": statistics.median(speeds), "min": speeds[0], "max": speeds[-1]
    }
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    report["problems"] = [problem for run in runs for problem in run.problems]
    report["failed_frac"] = failed / attempted
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return report


def traced_passes(new_run, report: Dict[str, object]):
    """A pass with only the coarse spans (the baseline for the tracing
    overhead, and the batch matrix's timings), then a fully traced pass."""
    tracer = tracing.Tracer()
    try:
        tracing.instrument_coarse(tracer)
        light = workloads.run_phases(new_run(once=True, tracer=tracer))
        tracer.sync()
        light_spans = list(tracer.spans)
        tracer.reset()
        tracing.instrument_hot(tracer)
        full = workloads.run_phases(new_run(once=True, tracer=tracer))
        matrix = layers.batch_matrix(light_spans)
        values = layers.layer_metrics(tracer, full, light.unit_seconds, matrix)
        report["matrix"] = matrix
        report["trace_file"] = write_trace(
            full, report["host"], tracer, light_spans, matrix
        )
    finally:
        tracer.close()
    return values, [light, full]


def write_trace(run, host, tracer, light_spans, matrix) -> str:
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{run.workload}-seed{run.seed}.json"
    payload = {
        "workload": run.workload,
        "seed": run.seed,
        "host": host,
        "totals": [
            {"phase": phase, "name": name, "calls": calls, "total_s": total, "self_s": own}
            for (phase, name), (calls, total, own) in sorted(tracer.totals().items())
        ],
        "counters": [
            {"phase": phase, "name": name, "value": value}
            for (phase, name), value in sorted(tracer.counters.items())
        ],
        "light_spans": light_spans,
        "spans": tracer.spans,
        "matrix": matrix,
    }
    path.write_text(json.dumps(payload) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
    )
    print("\n".join(render(report)))
    return 0


def render(report: Dict[str, object]) -> List[str]:
    """The printed report; its last line is the result JSON."""
    lines = ["host " + json.dumps(report["host"], sort_keys=True)]
    if "matrix" in report:
        lines.extend("matrix " + line for line in layers.format_matrix(report["matrix"]))
        lines.append(f"trace {report['trace_file']}")
    lines.extend(f"check failed: {problem}" for problem in report["problems"])
    result = report["result"]
    lines.append(
        f"failed_frac {report['failed_frac']:.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    units = dict(workloads.END_TO_END, **workloads.PRINTED_ONLY)
    for name, value in report.get("unscaled", {}).items():
        lines.append(f"unscaled {name} {value:.6g} {units[name]}")
    for name, value in report.get("printed_only", {}).items():
        lines.append(f"printed-only {name} {value:.6g} {units[name]}")
    for name, metric in result["metrics"].items():
        lines.append(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    lines.append(json.dumps(result))
    return lines


if __name__ == "__main__":
    sys.exit(main())
