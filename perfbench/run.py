#!/usr/bin/env python3
"""End-to-end benchmark of the topostable CLI, with a traced per-layer mode.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it finds the package under ``src/``
and needs nothing installed beyond numpy.

--trace 0  Closed loop, one client: one ``python -m topostable ...`` child at
           a time on the generated inputs, until --seconds have passed.
           Prints the end-to-end metrics: setup_s (median time to generate
           the inputs), wall_s (median child wall time, spawn to exit),
           peak_rss_mb (median child max RSS from wait4) and
           residual_variance (the quality metric; the mean over cells for
           the sweep).
--trace 1  Times the package's layers: ``python -m topostable version`` for
           the import cost, then pairs of one untraced child (its CPU time,
           and the wall time the tracing overhead is taken against) and the
           same command in this process with every layer function wrapped
           in a span (see tracing.py), until --seconds have passed. Prints
           the per-layer metrics, medians over the pairs, and writes the
           spans to .perfbench/traces/.

Every run checks every output (verify.py) against the reference in
perfbench/reference/, recorded at the canonical pose (seed 0) with
--record-reference. A failed cell or a failed check is counted in
``failed`` out of ``attempted`` cells, and printed as error_rate; it does
not stop the run. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Children and the traced run use at most nproc BLAS threads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# Set before numpy loads so the traced in-process run obeys the same cap.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)
sys.path[:0] = [str(ROOT), str(SRC)]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from perfbench import tracing, verify  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference"
STARTED = time.perf_counter()
HARD_LIMIT_S = 170.0  # a child still running then is killed and its cells fail
# Input generation is timed in slices between CLI runs, so that setup_s,
# their median, covers the whole run rather than one moment of it.
SETUP_SLICE_S = 0.25
SETUP_MAX_S = 3.0
IMPORT_REPEATS = 5
MIN_SAMPLES = 2
MB = 1e6

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "residual_variance": "ratio",
    "setup_s": "s",
}

# Times are self times (span minus its traced children), summed over the
# calls in one traced run; peaks are tracemalloc peaks above the traced
# memory at span start, the largest over the calls.
PER_LAYER = {
    "datasets.load_s": "s",
    "datasets.load_peak_mb": "MB",
    "datasets.input_mb": "MB",
    "graph.build_s": "s",
    "graph.build_peak_mb": "MB",
    "graph.edges": "count",
    "graph.stable_edge_ratio": "ratio",
    "geodesic.apsp_s": "s",
    "geodesic.apsp_peak_mb": "MB",
    "geodesic.apsp_ops": "count",
    "geodesic.component_s": "s",
    "geodesic.components": "count",
    "geodesic.dropped_points": "count",
    "geodesic.mds_s": "s",
    "geodesic.center_s": "s",
    "linalg.eigen_s": "s",
    "geodesic.mds_peak_mb": "MB",
    "linalg.clipped_dims": "count",
    "geodesic.rv_s": "s",
    "geodesic.rv_peak_mb": "MB",
    "pipeline.glue_s": "s",
    "pipeline.peak_n2_matrices": "n2x8B",
    "pipeline.write_s": "s",
    "pipeline.output_mb": "MB",
    "pipeline.cells": "count",
    "pipeline.cells_failed": "count",
    "cli.glue_s": "s",
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Layer spans whose self times add up, with cli.glue_s, to trace.wall_s.
SELF_TIME_METRICS = {
    "datasets.load": "datasets.load_s",
    "graph.build": "graph.build_s",
    "geodesic.apsp": "geodesic.apsp_s",
    "geodesic.component": "geodesic.component_s",
    "geodesic.mds": "geodesic.mds_s",
    "geodesic.center": "geodesic.center_s",
    "linalg.eigen": "linalg.eigen_s",
    "geodesic.rv": "geodesic.rv_s",
    "pipeline.embed": "pipeline.glue_s",
    "pipeline.compare": "pipeline.glue_s",
    "pipeline.write": "pipeline.write_s",
    "cli.main": "cli.glue_s",
}
PEAK_METRICS = {
    "datasets.load": "datasets.load_peak_mb",
    "graph.build": "graph.build_peak_mb",
    "geodesic.apsp": "geodesic.apsp_peak_mb",
    "geodesic.mds": "geodesic.mds_peak_mb",
    "geodesic.rv": "geodesic.rv_peak_mb",
}


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class CliSample:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    stderr: str


def run_cli(argv, workdir):
    """One `python -m topostable` child, timed from spawn to exit."""
    err_path = Path(workdir) / "cli-stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "topostable", *argv],
            cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(1.0, STARTED + HARD_LIMIT_S - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliSample(wall, usage.ru_maxrss * 1024 / MB, usage.ru_utime + usage.ru_stime, proc.returncode,
                     err_path.read_text(errors="replace"))


def setup(workload, workdir, seed, smoke, times):
    """Generate the inputs for at least SETUP_SLICE_S; append each time to ``times``."""
    spent = 0.0
    while spent == 0.0 or spent < SETUP_SLICE_S:
        start = time.perf_counter()
        inputs = workload.make(workdir, seed, smoke)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return inputs


def keep_going(start, seconds, durations, minimum):
    """Closed-loop stop rule: take ``minimum`` samples, then start another
    only while it is predicted to end within ``seconds`` of ``start``."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def clear_outputs(inputs):
    for path in inputs.outputs.values():
        path.unlink(missing_ok=True)


def output_bytes(inputs):
    return {role: path.read_bytes() if path.exists() else None for role, path in inputs.outputs.items()}


def reference_for(workload, workdir, smoke):
    if not smoke:
        return REFERENCE / workload.name
    # No recorded reference at smoke sizes: record one at the canonical pose.
    dest = Path(workdir) / "reference"
    record_reference(workload, dest, smoke)
    return dest


def record_reference(workload, dest, smoke=False):
    """Run the canonical pose once and keep its outputs as the reference."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="record-") as tmp:
        inputs = workload.make(tmp, 0, smoke)
        sample = run_cli(inputs.argv, tmp)
        verdict = verify.check(sample.exit_code, sample.stderr, inputs)
        if verdict.problems:
            raise RuntimeError(f"{workload.name}: reference run failed: {verdict.problems}")
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        for role, path in inputs.outputs.items():
            if role != "svg":
                shutil.copyfile(path, dest / path.name)
        (dest / "stderr.txt").write_text(sample.stderr)


class Tally:
    """Cells attempted and failed, plus the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, verdict, label):
        self.attempted += verdict.cells
        self.failed += verdict.failed_cells
        self.problems += [f"{label}: {p}" for p in verdict.problems]


def measure(workload, seed, smoke, ref, seconds, workdir, tally):
    """Closed loop of CLI children on freshly generated inputs."""
    samples, rvs, durations, setup_times = [], [], [], []
    first = None
    start = time.perf_counter()
    while keep_going(start, seconds, durations, MIN_SAMPLES):
        began = time.perf_counter()
        if sum(setup_times) < SETUP_MAX_S:
            inputs = setup(workload, workdir, seed, smoke, setup_times)
        clear_outputs(inputs)
        sample = run_cli(inputs.argv, workdir)
        verdict = verify.check(sample.exit_code, sample.stderr, inputs, ref)
        outputs = output_bytes(inputs)
        first = first or outputs
        if outputs != first and not verdict.problems:
            verdict.problems.append("outputs differ from the first run on the same input")
            verdict.failed_cells = verdict.cells
        tally.add(verdict, f"run {len(samples)}")
        samples.append(sample)
        rvs.append(verdict.residual_variance)
        durations.append(time.perf_counter() - began)
    walls = [s.wall_s for s in samples]
    print(f"  {len(samples)} CLI runs, wall min {min(walls):.4f} s, max {max(walls):.4f} s; "
          f"{len(setup_times)} setups")
    rvs = [rv for rv in rvs if rv == rv]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "residual_variance": statistics.median(rvs) if rvs else None,
        "setup_s": statistics.median(setup_times),
    }


class Counts:
    """Fills span counts from the values the layer functions return."""

    def __init__(self):
        self.data = None

    def __call__(self, span, fn, args, kwargs, result):
        if fn in ("load_csv", "load_idx"):
            self.data = result
            span.counts["n"] = result.n
        elif fn == "build_graph":
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            method = args[2] if len(args) > 2 else kwargs.get("method", "standard")
            span.counts.update(k=cfg.k, method=method, edges=result.n_edges)
        elif fn in ("floyd_all_pairs", "dijkstra_all_pairs"):
            span.counts["components"] = int(result.component_ids.max()) + 1
            if fn == "floyd_all_pairs":
                span.counts["ops"] = result.n**3  # computed: one relaxation per (k, i, j)
        elif fn == "largest_component":
            span.counts["dropped"] = args[0].n - result[2].size
        elif fn == "classical_mds":
            span.counts["clipped"] = result.n_clipped


def traced_once(inputs, tracer):
    """The CLI command in this process under the tracer; (exit code, stderr)."""
    import topostable.cli

    modules = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "topostable"]
    err = io.StringIO()
    tracemalloc.start()
    try:
        with tracing.traced(tracer, modules), contextlib.redirect_stderr(err):
            with tracer.span("cli.main"):
                try:
                    code = topostable.cli.main(list(inputs.argv))
                except Exception:  # counted as a failed run, like a crashed child
                    traceback.print_exc()
                    code = 1
    finally:
        tracemalloc.stop()
    return code, err.getvalue()


def knn_edges(data, k):
    from topostable.graph import SelectorConfig, build_graph

    return build_graph(data, SelectorConfig(k=k), "standard").n_edges


def layer_metrics(spans, own, counts):
    """Per-layer metrics of one traced run from its spans and self times."""
    m = {name: 0.0 for name in set(SELF_TIME_METRICS.values()) | set(PEAK_METRICS.values())}
    totals = {"edges": 0, "ops": 0, "components": 0, "dropped": 0, "clipped": 0}
    stable, knn = {}, {}
    for span, seconds in zip(spans, own):
        m[SELF_TIME_METRICS[span.name]] += seconds
        if span.name in PEAK_METRICS:
            key = PEAK_METRICS[span.name]
            m[key] = max(m[key], span.peak_above_start / MB)
        for key in totals:
            totals[key] += span.counts.get(key, 0)
        if span.name == "graph.build":
            side = stable if span.counts["method"] == "stable" else knn
            side[span.counts["k"]] = side.get(span.counts["k"], 0) + span.counts["edges"]
    for k in stable:
        if k not in knn:
            knn[k] = knn_edges(counts.data, k)
    root = spans[0]
    n = counts.data.n
    m.update({
        "graph.edges": totals["edges"],
        "graph.stable_edge_ratio": sum(stable.values()) / sum(knn[k] for k in stable) if stable else 1.0,
        "geodesic.apsp_ops": totals["ops"],
        "geodesic.components": totals["components"],
        "geodesic.dropped_points": totals["dropped"],
        "linalg.clipped_dims": totals["clipped"],
        "pipeline.peak_n2_matrices": root.peak_above_start / (n * n * 8),
        "trace.wall_s": root.seconds,
    })
    return m


def trace(workload, inputs, ref, seconds, workdir, tally, seed):
    """Per-layer metrics: the import cost, then pairs of one untraced child
    and one traced in-process run, until --seconds have passed."""
    start = time.perf_counter()
    import_s = statistics.median(run_cli(["version"], workdir).wall_s for _ in range(IMPORT_REPEATS))
    untraced, runs, spans, durations = [], [], [], []
    while keep_going(start, seconds, durations, 1):
        began = time.perf_counter()
        clear_outputs(inputs)
        sample = run_cli(inputs.argv, workdir)
        tally.add(verify.check(sample.exit_code, sample.stderr, inputs, ref), f"untraced run {len(runs)}")
        untraced.append(sample)
        expected = output_bytes(inputs)

        clear_outputs(inputs)
        counts = Counts()
        tracer = tracing.Tracer(run=len(runs), observe=counts)
        code, stderr = traced_once(inputs, tracer)
        verdict = verify.check(code, stderr, inputs, ref)
        if output_bytes(inputs) != expected and not verdict.problems:
            verdict.problems.append("outputs differ from the untraced run")
            verdict.failed_cells = verdict.cells
        tally.add(verdict, f"traced run {tracer.run}")
        own = tracing.self_times(tracer.spans)
        spans += [dict(s.as_dict(), self_s=t) for s, t in zip(tracer.spans, own)]
        m = layer_metrics(tracer.spans, own, counts) if counts.data is not None else {}
        m["pipeline.cells"] = verdict.cells
        m["pipeline.cells_failed"] = verdict.failed_cells
        runs.append(m)
        durations.append(time.perf_counter() - began)

    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    untraced_wall = statistics.median(s.wall_s for s in untraced)
    metrics.update({
        "datasets.input_mb": sum(p.stat().st_size for p in inputs.files) / MB,
        "pipeline.output_mb": sum(len(b) for b in expected.values() if b is not None) / MB,
        "cli.import_s": import_s,
        "cli.cpu_s": statistics.median(s.cpu_s for s in untraced),
    })
    if "trace.wall_s" in metrics:
        # The traced run skips interpreter start and import; the child pays them.
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] + import_s - untraced_wall
    print(f"  {len(runs)} traced and untraced runs; untraced wall median {untraced_wall:.4f} s")

    out = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": workload.name, "seed": seed, "environment": environment(),
                               "spans": spans, "metrics": metrics}, indent=1))
    print(f"  spans written to {out.relative_to(ROOT)}")
    return metrics


def run_workload(workload, seed, seconds, traced, smoke):
    """(metrics, tally) for one workload; prints a human-readable block."""
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    print(f"workload {workload.name} seed {seed} ({'traced' if traced else 'untraced'}): {workload.why}")
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
        ref = verify.load_reference(reference_for(workload, tmp, smoke))
        if traced:
            inputs = workload.make(tmp, seed, smoke)
            metrics, units = trace(workload, inputs, ref, seconds, tmp, tally, seed), PER_LAYER
        else:
            metrics, units = measure(workload, seed, smoke, ref, seconds, tmp, tally), END_TO_END
    metrics = {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"  {name:<26} {entry['value']!s:>22} {entry['unit']}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':<26} {error_rate!s:>22} ratio ({tally.failed} failed of {tally.attempted} cells)")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    return metrics, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="pose of the inputs; 0 is the canonical pose")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to keep measuring")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun the canonical pose at full size and overwrite perfbench/reference/")
    args = parser.parse_args(argv)

    if not (SRC / "topostable" / "__init__.py").is_file():
        print(f"error: no topostable package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        for name in names:
            record_reference(WORKLOADS[name], REFERENCE / name)
            print(f"recorded {REFERENCE / name}")
        return 0

    print("environment: " + json.dumps(environment()))
    results = {}
    attempted = failed = 0
    problems = False
    for name in names:
        metrics, tally = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace == 1, args.smoke)
        results[name] = metrics
        attempted += tally.attempted
        failed += tally.failed
        problems = problems or bool(tally.problems)
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}.{k}": v for w, ms in results.items() for k, v in ms.items()}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
