"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing, verify
from perfbench.workloads import WORKLOADS
from topostable.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[2]


def make(name, tmp_path, seed, tag=""):
    workdir = tmp_path / f"{name}-{seed}{tag}"
    workdir.mkdir()
    return WORKLOADS[name].make(workdir, seed, True)


def run_cli(inputs, capsys):
    code = cli_main(list(inputs.argv))
    return code, capsys.readouterr().err


def read_points(inputs):
    """Points the program reads, in file order (the IDX prefix it keeps)."""
    path = inputs.files[0]
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",")
    raw = path.read_bytes()
    _, count, rows, cols = struct.unpack(">IIII", raw[:16])
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    return pixels[: inputs.base_ids.size].astype(np.float64)


def sq_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(name, tmp_path):
    a, b, c = make(name, tmp_path, 7, "a"), make(name, tmp_path, 7, "b"), make(name, tmp_path, 8)
    for fa, fb, fc in zip(a.files, b.files, c.files):
        assert fa.read_bytes() == fb.read_bytes()
        assert fa.read_bytes() != fc.read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pose_preserves_pairwise_distances(name, tmp_path):
    canon, posed = make(name, tmp_path, 0), make(name, tmp_path, 5)
    assert np.array_equal(canon.base_ids, np.arange(canon.base_ids.size))
    order = np.argsort(posed.base_ids)
    d_canon = sq_distances(read_points(canon))
    d_posed = sq_distances(read_points(posed)[order])
    np.testing.assert_allclose(d_posed, d_canon, rtol=1e-12, atol=1e-12 * d_canon.max())
    if canon.labels is not None:
        assert np.array_equal(posed.labels[order], canon.labels)


def test_verifier_accepts_posed_embedding_and_rejects_damage(tmp_path, capsys):
    name = "embed-swissroll-1600"
    canon = make(name, tmp_path, 0)
    code, err = run_cli(canon, capsys)
    assert code == 0
    ref = verify.parse_embed(canon.outputs["csv"], err)

    posed = make(name, tmp_path, 3)
    code, err = run_cli(posed, capsys)
    verdict = verify.check(code, err, posed, ref)
    assert verdict.problems == [] and verdict.failed_cells == 0
    assert verdict.residual_variance == ref.residual_variance

    csv = posed.outputs["csv"]
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    csv.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    verdict = verify.check(code, err, posed, ref)
    assert verdict.failed_cells == 1
    assert any("differs from the reference" in p for p in verdict.problems)

    csv.write_text("\n".join(lines[:-1]) + "\n")
    verdict = verify.check(code, err, posed, ref)
    assert verdict.failed_cells == 1
    assert any("embedding rows" in p for p in verdict.problems)

    assert verify.check(2, "error: boom", posed, ref).failed_cells == 1


def test_verifier_counts_nan_cell_and_reference_mismatch(tmp_path, capsys):
    name = "sweep-swissroll-800"
    canon = make(name, tmp_path, 0)
    assert run_cli(canon, capsys)[0] == 0
    ref = verify.parse_report(canon.outputs["report"])

    posed = make(name, tmp_path, 4)
    code, err = run_cli(posed, capsys)
    verdict = verify.check(code, err, posed, ref)
    assert verdict.cells == 8 and verdict.failed_cells == 0, verdict.problems

    report = posed.outputs["report"]
    lines = report.read_text().splitlines()
    k, method, _, *rest = lines[3].split(",")
    lines[3] = ",".join([k, method, "nan", *rest])
    report.write_text("\n".join(lines) + "\n")
    verdict = verify.check(code, err, posed, ref)
    assert verdict.failed_cells == 1
    assert any("failed in the pipeline" in p for p in verdict.problems)

    report.write_text("\n".join(lines[:-1]) + "\n")
    assert verify.check(code, err, posed, ref).failed_cells == 8


def test_self_times_on_hand_built_tree():
    spans = [
        tracing.Span("cli.main", 0, None, 0.0, 10.0),
        tracing.Span("graph.build", 0, 0, 1.0, 4.0),
        tracing.Span("geodesic.mds", 0, 0, 5.0, 9.0),
        tracing.Span("linalg.eigen", 0, 2, 6.0, 8.0),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_wrappers_are_restored_after_an_error():
    import topostable.geodesic
    import topostable.pipeline

    modules = [topostable.pipeline, topostable.geodesic]
    before = {(m, a): getattr(m, a) for m in modules for a in tracing.LAYERS if hasattr(m, a)}
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer(), modules):
            assert topostable.pipeline.build_graph is not before[(topostable.pipeline, "build_graph")]
            raise RuntimeError("stop")
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())


def test_traced_run_spans_add_up_and_restore(tmp_path):
    import topostable.pipeline

    inputs = make("embed-swissroll-1600", tmp_path, 2)
    original = topostable.pipeline.floyd_all_pairs
    tracer = tracing.Tracer(observe=run.Counts())
    code, stderr = run.traced_once(inputs, tracer)
    assert code == 0 and "embedded" in stderr
    assert topostable.pipeline.floyd_all_pairs is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    for layer in ("datasets.load", "graph.build", "geodesic.apsp", "geodesic.component",
                  "geodesic.mds", "geodesic.center", "linalg.eigen", "geodesic.rv", "pipeline.write"):
        assert layer in names
    own = tracing.self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].seconds, abs=1e-9)
    assert all(t >= 0.0 for t in own)

    m = run.layer_metrics(tracer.spans, own, tracer.observe)
    assert sum(m[key] for key in set(run.SELF_TIME_METRICS.values())) == pytest.approx(m["trace.wall_s"])
    assert m["geodesic.apsp_ops"] == tracer.observe.data.n ** 3
    assert 0.0 < m["graph.stable_edge_ratio"] <= 1.0


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, seconds", [("0", "0.1"), ("1", "3")])
def test_smoke_run_reports_every_declared_metric(trace, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "all", "--seed", "9",
         "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    want = {f"{w['name']}.{m['name']}": m["unit"] for w in spec["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "1":
        spans = json.loads((ROOT / ".perfbench/traces/idx-take-first-500-seed9.json").read_text())["spans"]
        assert len({s["run"] for s in spans}) > 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idx-take-first-500", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
