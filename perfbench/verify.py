"""Checks on the CLI's output files.

Every cell the CLI ran is checked for shape (row counts, index and label
columns, no NaN) and, when a reference is given, against the reference run
at the canonical pose within the ROADMAP equivalence tolerances. A failed
check marks the cell failed; it never raises.
"""

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ROADMAP equivalence: embeddings match within 1e-8 under the sign convention.
EMBED_RTOL = 1e-8
# Report CSVs carry 17 significant digits; geodesics agree within 1e-12.
REPORT_RV_RTOL = 1e-9
# The embed summary line prints the residual variance to 6 significant digits.
SUMMARY_RV_RTOL = 1e-5
# Double centering makes every coordinate column sum to zero.
CENTER_RTOL = 1e-8

SUMMARY = re.compile(r"embedded (\d+)/(\d+) points, (\d+) edges, residual variance (\S+)")
REPORT_HEADER = "k,method,residual_variance,n_embedded,n_dropped,n_edges,clipped_dims"


@dataclass
class Verdict:
    cells: int
    failed_cells: int = 0
    problems: list = field(default_factory=list)
    residual_variance: float = math.nan  # mean over the cells that produced one


@dataclass(frozen=True)
class EmbedResult:
    n_input: int
    n_edges: int
    residual_variance: float
    index: np.ndarray
    labels: np.ndarray
    coords: np.ndarray


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def parse_embed(csv_path, stderr):
    """EmbedResult from the embedding CSV and the CLI's summary line."""
    match = SUMMARY.search(stderr)
    if match is None:
        raise ValueError("no summary line on stderr")
    n_kept, n_input, n_edges, rv = match.groups()
    lines = Path(csv_path).read_text().splitlines()
    if not lines or not re.fullmatch(r"index,label(,y\d+)+", lines[0]):
        raise ValueError("bad embedding header")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64).reshape(len(lines) - 1, -1)
    if rows.shape[0] != int(n_kept):
        raise ValueError(f"{rows.shape[0]} embedding rows, summary says {n_kept}")
    return EmbedResult(
        int(n_input), int(n_edges), float(rv),
        rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2:],
    )


def _embed_problems(res, inputs, ref):
    n = inputs.base_ids.size
    if res.n_input != n:
        return [f"summary reports {res.n_input} input points, generated {n}"]
    idx = res.index
    if idx.size == 0 or np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= n:
        return ["index column is not strictly increasing within the input"]
    expected = np.full(idx.size, -1) if inputs.labels is None else inputs.labels[idx]
    if not np.array_equal(res.labels, expected):
        return ["label column does not match the generated labels"]
    c = res.coords
    if not np.all(np.isfinite(c)):
        return ["non-finite coordinate"]
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.any(np.abs(c.sum(axis=0)) > CENTER_RTOL * scale * c.shape[0]):
        return ["embedding columns are not centered"]
    if ref is None:
        return []
    problems = []
    if res.n_edges != ref.n_edges:
        problems.append(f"{res.n_edges} edges, reference {ref.n_edges}")
    if not _close(res.residual_variance, ref.residual_variance, SUMMARY_RV_RTOL):
        problems.append(f"residual variance {res.residual_variance}, reference {ref.residual_variance}")
    base = inputs.base_ids[idx]
    order = np.argsort(base)
    if not np.array_equal(base[order], ref.index):
        problems.append("kept points differ from the reference")
    elif np.max(np.abs(c[order] - ref.coords)) > EMBED_RTOL * max(1.0, float(np.max(np.abs(ref.coords)))):
        problems.append("embedding differs from the reference")
    return problems


def check_embed(exit_code, stderr, inputs, ref=None):
    """Verdict for one `embed` invocation (one cell)."""
    verdict = Verdict(cells=1)
    try:
        if exit_code != 0:
            raise ValueError(f"exit code {exit_code}: {stderr.strip()[-200:]}")
        res = parse_embed(inputs.outputs["csv"], stderr)
        svg = inputs.outputs.get("svg")
        if svg is not None and Path(svg).read_text().count("<circle") != res.index.size:
            raise ValueError("scatter plot does not draw one circle per embedded point")
    except (OSError, ValueError) as exc:
        verdict.problems.append(str(exc))
    else:
        verdict.problems += _embed_problems(res, inputs, ref)
        verdict.residual_variance = res.residual_variance
    verdict.failed_cells = 1 if verdict.problems else 0
    return verdict


def parse_report(csv_path):
    """Report rows as dicts of typed values."""
    lines = Path(csv_path).read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("bad report header")
    rows = []
    for line in lines[1:]:
        k, method, rv, emb, dropped, edges, clipped = line.split(",")
        rows.append(dict(k=int(k), method=method, residual_variance=float(rv), n_embedded=int(emb),
                         n_dropped=int(dropped), n_edges=int(edges), clipped_dims=int(clipped)))
    return rows


def check_report(exit_code, stderr, inputs, ref=None):
    """Verdict for one `compare` invocation; every (k, method) cell counts."""
    verdict = Verdict(cells=len(inputs.cells))
    try:
        if exit_code != 0:
            raise ValueError(f"exit code {exit_code}: {stderr.strip()[-200:]}")
        rows = parse_report(inputs.outputs["report"])
        if [(r["k"], r["method"]) for r in rows] != list(inputs.cells):
            raise ValueError(f"report has {len(rows)} rows, expected cells {list(inputs.cells)}")
    except (OSError, ValueError) as exc:
        verdict.problems.append(str(exc))
        verdict.failed_cells = verdict.cells
        return verdict
    n = inputs.base_ids.size
    rvs = []
    for i, row in enumerate(rows):
        cell = f"cell k={row['k']} method={row['method']}"
        bad = []
        if math.isnan(row["residual_variance"]):
            bad.append(f"{cell} failed in the pipeline")
        elif row["n_embedded"] + row["n_dropped"] != n:
            bad.append(f"{cell}: embedded + dropped != {n}")
        elif ref is not None:
            want = ref[i]
            for key in ("n_embedded", "n_dropped", "n_edges", "clipped_dims"):
                if row[key] != want[key]:
                    bad.append(f"{cell}: {key} {row[key]}, reference {want[key]}")
            if not _close(row["residual_variance"], want["residual_variance"], REPORT_RV_RTOL):
                bad.append(f"{cell}: residual variance {row['residual_variance']}, "
                           f"reference {want['residual_variance']}")
        if not math.isnan(row["residual_variance"]):
            rvs.append(row["residual_variance"])
        verdict.problems += bad
        verdict.failed_cells += 1 if bad else 0
    if rvs:
        verdict.residual_variance = float(np.mean(rvs))
    return verdict


def check(exit_code, stderr, inputs, ref=None):
    if "report" in inputs.outputs:
        return check_report(exit_code, stderr, inputs, ref)
    return check_embed(exit_code, stderr, inputs, ref)


def load_reference(directory):
    """Parsed outputs of the canonical-pose run stored in ``directory``."""
    directory = Path(directory)
    if (directory / "report.csv").exists():
        return parse_report(directory / "report.csv")
    return parse_embed(directory / "embedding.csv", (directory / "stderr.txt").read_text())
