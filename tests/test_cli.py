import contextlib
import io
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topostable import RunConfig, __version__
from topostable.cli import build_parser, main

from test_datasets import write_idx_images, write_idx_labels


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "usage" in err.lower()

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, ["generate", "--manifold", "torus", "--n", "50"])
        assert code == 1

    def test_bad_k_list(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["compare", "--in", "x.csv", "--k", "5,axe"])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0


class TestRunFlags:
    """embed and compare share --m, --dim-w and --delta-theta."""

    FLAGS = ("m", "dim_w", "delta_theta")

    def parsed(self, command, extra):
        args = build_parser().parse_args([command, "--in", "x.csv", "--k", "5", *extra])
        return {f: getattr(args, f) for f in self.FLAGS}

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ([], {"m": 2, "dim_w": 2, "delta_theta": 5.0}),
            (["--m", "3", "--dim-w", "1", "--delta-theta", "7.5"], {"m": 3, "dim_w": 1, "delta_theta": 7.5}),
        ],
    )
    def test_same_values_in_both_subcommands(self, extra, expected):
        assert self.parsed("embed", extra) == self.parsed("compare", extra) == expected

    @pytest.mark.parametrize("command", ["embed", "compare"])
    def test_defaults_are_the_config_defaults(self, command):
        cfg = RunConfig(method="stable", k=5)
        assert self.parsed(command, []) == {"m": cfg.m, "dim_w": cfg.dim_w, "delta_theta": cfg.delta_theta_deg}

    @pytest.mark.parametrize("command", ["embed", "compare"])
    def test_unknown_shortest_path_rejected(self, capsys, command):
        # the all-pairs step has one algorithm; the flag that chose it is gone
        code, _, err = run(capsys, [command, "--in", "x.csv", "--k", "5", "--shortest-path", "floyd"])
        assert code == 1
        assert "unrecognized arguments: --shortest-path floyd" in err


class TestVersion:
    def test_prints_version(self, capsys):
        code, out, _ = run(capsys, ["version"])
        assert code == 0
        assert out.strip() == __version__


class TestGenerate:
    def test_swissroll_row_count(self, capsys, tmp_path):
        out = tmp_path / "sr.csv"
        code, _, err = run(capsys, ["generate", "--manifold", "swissroll", "--n", "800", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 800
        assert all(len(line.split(",")) == 3 for line in lines[:5])

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["generate", "--manifold", "helix", "--n", "60", "--seed", "4", "--out", str(a)])
        run(capsys, ["generate", "--manifold", "helix", "--n", "60", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, ["generate", "--manifold", "sphere", "--n", "20", "--seed", "0"])
        assert code == 0
        assert len(out.splitlines()) == 20

    def test_bad_count_is_data_error(self, capsys):
        code, _, err = run(capsys, ["generate", "--manifold", "helix", "--n", "3"])
        assert code == 2
        assert "error" in err


class TestEmbed:
    @pytest.fixture()
    def roll_csv(self, capsys, tmp_path):
        path = tmp_path / "roll.csv"
        run(capsys, ["generate", "--manifold", "swissroll", "--n", "150", "--seed", "2", "--out", str(path)])
        return path

    def test_embedding_and_svg(self, capsys, roll_csv, tmp_path):
        out, svg = tmp_path / "emb.csv", tmp_path / "emb.svg"
        code, _, err = run(
            capsys,
            ["embed", "--in", str(roll_csv), "--method", "stable", "--k", "8",
             "--out", str(out), "--svg", str(svg)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,label,y1,y2"
        assert "residual variance" in err
        embedded = int(err.split("embedded ")[1].split("/")[0])
        assert len(lines) == embedded + 1
        assert embedded > 100
        assert svg.read_text().startswith("<svg")

    def test_svg_of_one_dimension_is_usage_error(self, capsys, roll_csv, tmp_path):
        # refused before the input is read, so no embedding is written
        out, svg = tmp_path / "emb.csv", tmp_path / "emb.svg"
        code, _, err = run(capsys, ["embed", "--in", str(roll_csv), "--k", "8", "--m", "1", "--out", str(out), "--svg", str(svg)])
        assert code == 1
        assert "--svg needs --m 2 or more" in err
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("embed", ["--k", "0"], "k must be positive"),
            ("embed", ["--k", "8", "--m", "0"], "m must be positive"),
            ("compare", ["--k", "0,10"], "k must be positive"),
            ("compare", ["--k=10,-3"], "k must be positive"),
            ("compare", ["--k", "10", "--m", "-1"], "m must be positive"),
            ("embed", ["--k", "8", "--dim-w", "0"], "dim_w must be positive"),
            ("embed", ["--k", "8", "--delta-theta", "95"], "delta_theta_deg must lie strictly between 0 and 90"),
            ("compare", ["--k", "8", "--dim-w", "0"], "dim_w must be positive"),
            ("compare", ["--method", "stable", "--k", "8", "--delta-theta", "0"], "delta_theta_deg must lie strictly between 0 and 90"),
        ],
    )
    @pytest.mark.parametrize("exists", [True, False])
    def test_nonpositive_k_or_m_is_usage_error(self, capsys, roll_csv, tmp_path, command, flags, message, exists):
        # refused whatever the data, so before the input is read: a missing
        # file gets the same refusal
        source, out = (roll_csv if exists else tmp_path / "missing.csv"), tmp_path / "out.csv"
        code, _, err = run(capsys, [command, "--in", str(source), *flags, "--out", str(out)])
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("embed", ["--k", "8", "--dim-w", "0"]), ("compare", ["--k", "8", "--delta-theta", "95"])],
    )
    def test_standard_method_ignores_the_stable_settings(self, capsys, roll_csv, tmp_path, command, flags):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, [command, "--in", str(roll_csv), "--method", "standard", *flags, "--out", str(out)])
        assert code == 0, err
        assert out.exists()

    def test_missing_input_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["embed", "--in", str(tmp_path / "nope.csv"), "--k", "8"])
        assert code == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    @pytest.mark.parametrize("command", ["embed", "compare"])
    def test_pipe_input_is_usage_error(self, capsys, tmp_path, command):
        # the check stats the path and never opens it, so no writer is needed
        fifo = tmp_path / "pts.csv"
        os.mkfifo(fifo)
        code, out, err = run(capsys, [command, "--in", str(fifo), "--k", "8"])
        assert code == 1
        assert out == ""
        assert f"{fifo} is not a regular file" in err

    def test_ragged_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code, _, err = run(capsys, ["embed", "--in", str(bad), "--k", "8"])
        assert code == 2

    def test_non_finite_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("1,2\n3,4\n5,nan\n")
        code, _, err = run(capsys, ["embed", "--in", str(bad), "--k", "1"])
        assert code == 2
        assert f"error: {bad}: row 2, column 1: 'nan' is not finite" in err

    @pytest.mark.parametrize("tail", ["\n", " \n"])
    def test_trailing_blank_lines_ignored(self, capsys, tmp_path, tail):
        clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
        clean.write_text("1,2\n3,4\n5,6\n")
        padded.write_text("1,2\n3,4\n5,6\n" + tail)
        argv = ["embed", "--method", "standard", "--k", "1", "--in"]
        code, out, _ = run(capsys, [*argv, str(padded)])
        assert code == 0
        assert out == run(capsys, [*argv, str(clean)])[1]

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        clean, bom = tmp_path / "clean.csv", tmp_path / "bom.csv"
        clean.write_bytes(b"1,2\n3,4\n5,6\n")
        bom.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        argv = ["embed", "--method", "standard", "--k", "1", "--in"]
        code, out, _ = run(capsys, [*argv, str(bom)])
        assert code == 0
        assert out == run(capsys, [*argv, str(clean)])[1]

    def test_invalid_utf8_names_file_and_byte(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff1,2\n3,4\n5,6\n")
        code, out, err = run(capsys, ["embed", "--in", str(bad), "--method", "standard", "--k", "1"])
        assert code == 2 and out == ""
        assert err == f"error: {bad}: byte 0 is not UTF-8: b'\\xff'\n"

    @pytest.mark.parametrize(
        "rows, k, reason",
        [
            ("0,0\n1,0\n", "1", "needs at least 3 points, got 2"),
            ("1,0,0\n0,1,0\n0,0,1\n", "2", "every geodesic distance is equal"),
        ],
    )
    def test_undefined_residual_variance_still_writes_the_embedding(self, capsys, tmp_path, rows, k, reason):
        src, out = tmp_path / "in.csv", tmp_path / "emb.csv"
        src.write_text(rows)
        argv = ["embed", "--in", str(src), "--method", "standard", "--k", k, "--m", "1", "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + rows.count("\n")
        assert err.endswith(f" edges, residual variance undefined: {reason}\n")

    def test_one_column_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "onecol.csv"
        bad.write_text("1\n2\n3\n")
        code, _, err = run(capsys, ["embed", "--in", str(bad), "--k", "1"])
        assert code == 2
        assert f"error: {bad}: 1 column, need at least 2" in err

    def test_stdout_matches_file_output(self, capsys, roll_csv, tmp_path):
        out = tmp_path / "emb.csv"
        argv = ["embed", "--in", str(roll_csv), "--k", "8"]
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, [*argv, "--out", str(out)])[0] == 0
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_unwritable_output_is_data_error(self, capsys, roll_csv, tmp_path):
        dest = tmp_path / "no" / "such" / "dir" / "emb.csv"
        code, _, err = run(capsys, ["embed", "--in", str(roll_csv), "--k", "8", "--out", str(dest)])
        assert code == 2
        assert "error" in err

    def test_subspace_dim_too_large_for_data(self, capsys, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(f"{i},{i * i}" for i in range(20)) + "\n")
        code, _, err = run(capsys, ["embed", "--in", str(flat), "--method", "stable", "--k", "5"])
        assert code == 2
        assert "dim_w" in err

    def test_idx_input_with_labels(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, images)
        write_idx_labels(pl, list(rng.integers(0, 5, size=40)))
        out = tmp_path / "emb.csv"
        code, _, err = run(
            capsys,
            ["embed", "--in", str(pi), "--labels", str(pl), "--take-first", "30",
             "--method", "standard", "--k", "6", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        labels = {int(line.split(",")[1]) for line in lines[1:]}
        assert labels <= set(range(5))

    def test_idx_random_subset_keeps_its_labels(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8))
        labels = np.arange(100, 140)  # one distinct label per image
        write_idx_labels(pl, list(labels))
        out = tmp_path / "emb.csv"
        for seed_flag, seed in (([], 0), (["--seed", "4"], 4)):  # the draw's seed is 0 by default
            code, _, _ = run(
                capsys,
                ["embed", "--in", str(pi), "--labels", str(pl), "--take-first", "15", "--sample-random",
                 *seed_flag, "--method", "standard", "--k", "6", "--out", str(out)],
            )
            assert code == 0
            rows = np.array([line.split(",")[:2] for line in out.read_text().splitlines()[1:]], dtype=np.int64)
            chosen = np.sort(np.random.default_rng(seed).choice(40, size=15, replace=False))
            assert rows.shape == (15, 2)
            assert np.array_equal(rows[:, 1], labels[chosen][rows[:, 0]])

    @pytest.mark.parametrize("extra", [["--take-first", "0"], ["--take-first", "-3", "--sample-random"]])
    def test_take_first_below_one_is_data_error(self, capsys, tmp_path, extra):
        pi = tmp_path / "i.idx"
        write_idx_images(pi, np.zeros((20, 3, 3), dtype=np.uint8))
        code, _, err = run(capsys, ["embed", "--in", str(pi), "--k", "5", *extra])
        assert code == 2
        assert f"take_first must be at least 1, got {extra[1]}" in err

    def test_one_pixel_images_are_data_error(self, capsys, tmp_path):
        pi = tmp_path / "one.idx"
        write_idx_images(pi, np.arange(20, dtype=np.uint8).reshape(20, 1, 1))
        code, _, err = run(capsys, ["embed", "--in", str(pi), "--k", "3"])
        assert code == 2
        assert f"{pi}: 1x1 images have 1 pixel, need at least 2" in err

    @pytest.mark.parametrize("command", ["embed", "compare"])
    def test_sample_random_without_take_first_is_usage_error(self, capsys, tmp_path, command):
        # without a count the loader would keep every image, not a sample
        pi, out = tmp_path / "i.idx", tmp_path / "out.csv"
        write_idx_images(pi, np.zeros((20, 3, 3), dtype=np.uint8))
        code, _, err = run(capsys, [command, "--in", str(pi), "--k", "5", "--sample-random", "--out", str(out)])
        assert code == 1
        assert "--sample-random needs --take-first" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("embed", ["--take-first", "10"]),
            ("compare", ["--sample-random"]),
            ("embed", ["--labels", "labels.idx"]),
        ],
    )
    def test_idx_only_flag_on_csv_is_usage_error(self, capsys, roll_csv, tmp_path, command, extra):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, [command, "--in", str(roll_csv), "--k", "8", "--out", str(out), *extra])
        assert code == 1
        assert f"{extra[0]} applies to IDX input only" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "compare"])
    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_seed_without_sample_random_is_usage_error(self, capsys, roll_csv, tmp_path, command, kind):
        # it seeds only the random draw, so without one it would be dropped
        source, out = roll_csv, tmp_path / "out.csv"
        if kind == "idx":
            source = tmp_path / "i.idx"
            write_idx_images(source, np.zeros((20, 3, 3), dtype=np.uint8))
        code, _, err = run(capsys, [command, "--in", str(source), "--k", "5", "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert "--seed needs --sample-random" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "embed", "compare"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, command):
        # numpy would refuse it only when the draw is made, as a data error
        source, out = tmp_path / "i.idx", tmp_path / "out.csv"
        write_idx_images(source, np.zeros((40, 3, 3), dtype=np.uint8))
        if command == "generate":
            argv = ["generate", "--manifold", "helix", "--n", "20"]
        else:
            argv = [command, "--in", str(source), "--k", "5", "--sample-random", "--take-first", "20"]
        code, _, err = run(capsys, [*argv, "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert err == "error: --seed must be non-negative, got -1\n"
        assert not out.exists()


class TestOverflowingInput:
    """Coordinates whose squared distances overflow float64 are a data
    error that names the point, in embed and in each compare cell."""

    @pytest.fixture(params=[1e154, 1e160])
    def big_csv(self, request, tmp_path):
        path = tmp_path / "big.csv"
        pts = np.random.default_rng(0).normal(size=(20, 3)) * request.param
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in pts))
        return path

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_embed_is_data_error(self, capsys, big_csv, tmp_path, method):
        out = tmp_path / "emb.csv"
        code, _, err = run(capsys, ["embed", "--in", str(big_csv), "--k", "5", "--method", method, "--out", str(out)])
        assert code == 2
        assert re.fullmatch(r"error: neighbor graph: point \d+: .*\n", err)
        assert not out.exists()

    def test_compare_fails_every_cell(self, capsys, big_csv, tmp_path):
        out = tmp_path / "report.csv"
        code, _, err = run(capsys, ["compare", "--in", str(big_csv), "--k", "5,6", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [[method, "nan", "0", "20", "0", "0"] for method in ("standard", "stable")] * 2
        assert err.count(": neighbor graph: point ") == 4
        assert "compared 4 cells (4 failed)" in err


class TestLargeFiniteInput:
    """Coordinates large enough that residual variance's product of sums of
    squares overflows, though no distance does: embed reports the rv of the
    unscaled points, with no warning."""

    @staticmethod
    def embed(capsys, tmp_path, scale):
        src = tmp_path / f"points-{scale:g}.csv"
        pts = np.random.default_rng(0).normal(size=(20, 3)) * scale
        src.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in pts))
        code, _, err = run(capsys, ["embed", "--in", str(src), "--k", "5", "--out", str(tmp_path / "emb.csv")])
        assert code == 0
        assert "Warning" not in err
        return float(re.search(r"residual variance (\S+)\n", err).group(1))

    def test_embed_reports_the_unscaled_rv(self, capsys, tmp_path):
        unscaled = self.embed(capsys, tmp_path, 1.0)
        assert unscaled == 0.0390359
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = self.embed(capsys, tmp_path, 1e150)
        assert abs(big - unscaled) <= 1e-9


class TestCompare:
    def test_sweep_row_count(self, capsys, tmp_path):
        src = tmp_path / "roll.csv"
        run(capsys, ["generate", "--manifold", "swissroll", "--n", "120", "--seed", "3", "--out", str(src)])
        out = tmp_path / "report.csv"
        code, _, _ = run(
            capsys,
            ["compare", "--in", str(src), "--k", "6,9", "--method", "both", "--m", "2", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,method,residual_variance,n_embedded,n_dropped,n_edges,clipped_dims"
        assert len(lines) == 5

    def test_cell_the_selector_settings_refuse_names_its_stage(self, capsys, tmp_path):
        src = tmp_path / "roll.csv"
        run(capsys, ["generate", "--manifold", "swissroll", "--n", "120", "--seed", "3", "--out", str(src)])
        code, _, err = run(capsys, ["compare", "--in", str(src), "--k", "2,8", "--dim-w", "2"])
        assert code == 0
        assert "cell k=2 method=stable failed: neighbor graph: k must be at least dim_w + 1\n" in err.splitlines(keepends=True)
        assert "compared 4 cells (1 failed)" in err

    def test_single_method_sweep(self, capsys, tmp_path):
        src = tmp_path / "roll.csv"
        run(capsys, ["generate", "--manifold", "swissroll", "--n", "120", "--seed", "3", "--out", str(src)])
        code, out, _ = run(capsys, ["compare", "--in", str(src), "--k", "6,9", "--method", "stable"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[1] == "stable" for line in lines[1:])


FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

# --k lists of k in range, repeated and past the 12 points, with at times
# one item that is empty, zero or negative
k_items = st.tuples(
    st.lists(st.integers(1, 14).map(str), max_size=5),
    st.none() | st.sampled_from(["", "0", "-1"]),
    st.integers(0, 5),
).map(lambda t: t[0] if t[1] is None else t[0][: t[2]] + [t[1]] + t[0][t[2] :])


class TestCompareFuzz:
    """Any --k list, --method and --m on a small CSV: exit 0, 1 or 2 with no
    traceback, and on exit 0 one report row per cell."""

    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "pts.csv"
        pts = np.random.default_rng(7).normal(size=(12, 3))
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in pts))
        return path

    @FUZZ
    @given(
        items=k_items,
        joined=st.booleans(),
        method=st.sampled_from([None, "standard", "stable", "both", "fast"]),
        m=st.none() | st.integers(-1, 14).map(str) | st.just("two"),
    )
    def test_exit_code_and_rows(self, small_csv, items, joined, method, m):
        k_text = ",".join(items)
        argv = ["compare", "--in", str(small_csv), *([f"--k={k_text}"] if joined else ["--k", k_text])]
        argv += [] if method is None else ["--method", method]
        argv += [] if m is None else ["--m", m]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            cells = len([v for v in items if v != ""]) * (2 if method in (None, "both") else 1)
            assert len(out.getvalue().splitlines()) == 1 + cells
            assert f"compared {cells} cells" in err.getvalue()


class TestEmbedFuzz:
    """Any --k, --m, --dim-w, --delta-theta, --method and --svg of embed on
    a small CSV: exit 0, 1 or 2 with no traceback. A usage error comes
    before the input is read, so a missing file gets the same one."""

    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "pts.csv"
        pts = np.random.default_rng(7).normal(size=(12, 3))
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in pts))
        return path

    @staticmethod
    def embed(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @FUZZ
    @given(
        # values around each bound, with one that does not parse among them
        k=st.integers(-1, 14).map(str),
        m=st.none() | st.sampled_from(["-1", "0", "1", "2", "3", "5", "11", "12", "two"]),
        dim_w=st.none() | st.sampled_from(["-1", "0", "1", "2", "3", "4", "1.5"]),
        delta=st.none() | st.sampled_from(["-5", "0", "0.5", "5", "45", "89.9", "90", "95", "nan", "inf", "wide"]),
        method=st.none() | st.sampled_from(["standard", "stable", "both"]),
        svg=st.booleans(),
    )
    def test_exit_code_and_usage_errors(self, small_csv, k, m, dim_w, delta, method, svg):
        flags = ["--k", k]
        for flag, value in (("--m", m), ("--dim-w", dim_w), ("--delta-theta", delta), ("--method", method)):
            flags += [] if value is None else [flag, value]
        svg_path = small_csv.with_suffix(".svg")
        svg_path.unlink(missing_ok=True)
        flags += ["--svg", str(svg_path)] if svg else []
        code, out, err = self.embed(["embed", "--in", str(small_csv), *flags])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            width = 2 + int(m or 2)
            assert all(len(line.split(",")) == width for line in out.splitlines())
            assert svg_path.exists() == svg
        elif code == 1:
            missing = small_csv.with_name("missing.csv")
            assert self.embed(["embed", "--in", str(missing), *flags]) == (1, "", err)


def readme_commands():
    """Arguments of every `topostable ...` line in README's sh blocks, with
    backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("topostable "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse(capsys):
    # a flag deleted or renamed in the CLI must not linger in the docs
    commands = readme_commands()
    assert len(commands) >= 5  # generate, embed, compare, IDX embed, version
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: topostable {shlex.join(argv)}\n{capsys.readouterr().err}")


def test_module_entry_point():
    # the child gets the suite's import path, however the suite found the
    # package (install, PYTHONPATH or pytest's pythonpath setting)
    proc = subprocess.run(
        [sys.executable, "-m", "topostable", "version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_run_path_never_imports_numpy_random(capsys, tmp_path):
    # numpy.random costs milliseconds and megabytes of RSS when first
    # loaded, and no embed or compare run needs it. The runs go to a child,
    # because pytest and hypothesis load numpy.random into this process.
    roll = tmp_path / "roll.csv"
    run(capsys, ["generate", "--manifold", "swissroll", "--n", "150", "--seed", "2", "--out", str(roll)])
    rng = np.random.default_rng(0)
    pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(pi, rng.integers(0, 256, size=(80, 3, 3), dtype=np.uint8))
    write_idx_labels(pl, list(rng.integers(0, 5, size=80)))
    runs = [
        ["embed", "--in", str(roll), "--k", "8", "--out", str(tmp_path / "a.csv")],
        ["embed", "--in", str(pi), "--labels", str(pl), "--take-first", "60", "--k", "8",
         "--out", str(tmp_path / "b.csv")],
        ["compare", "--in", str(roll), "--k", "8,10", "--out", str(tmp_path / "c.csv")],
    ]
    script = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from topostable.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(before, 'numpy.random' in sys.modules, codes)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    before, after, codes = proc.stdout.split(maxsplit=2)
    if before == "True":
        pytest.skip(f"numpy {np.__version__} loads numpy.random on import")
    assert codes.strip() == "[0, 0, 0]", proc.stderr
    assert after == "False"
