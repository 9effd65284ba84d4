import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topostable import DataSet, gen_helix, gen_punctured_sphere, gen_swiss_roll, load_csv, load_idx
from topostable.errors import (
    BadCountError,
    BadDimError,
    BadMagicError,
    DimensionMismatchError,
    NonFiniteError,
    NonNumericCellError,
    RaggedRowsError,
    TopoStableError,
    TruncatedFileError,
)

from conftest import peak_bytes


class TestHelix:
    def test_points_match_parametric_form(self):
        s = gen_helix(200, 7)
        t = s.params[:, 0]
        r = 2.0 + np.cos(8.0 * t)
        expected = np.column_stack([r * np.cos(t), r * np.sin(t), np.sin(8.0 * t)])
        assert np.array_equal(s.data.points, expected)

    def test_parametric_form_at_zero(self):
        # t=0 gives radius 3 on the x axis
        r = 2.0 + np.cos(0.0)
        assert (r * np.cos(0.0), r * np.sin(0.0), np.sin(0.0)) == (3.0, 0.0, 0.0)

    def test_toroidal_identity(self):
        pts = gen_helix(500, 3).data.points
        radial = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - 2.0
        assert np.max(np.abs(radial**2 + pts[:, 2] ** 2 - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = gen_helix(500, 7)
        b = gen_helix(500, 7)
        assert np.array_equal(a.data.points, b.data.points)
        assert np.array_equal(a.params, b.params)

    def test_param_range(self):
        t = gen_helix(300, 1).params[:, 0]
        assert np.all((0 <= t) & (t < 2 * np.pi))

    def test_bad_count(self):
        with pytest.raises(BadCountError):
            gen_helix(9, 0)


class TestSwissRoll:
    def test_points_match_parametric_form(self):
        s = gen_swiss_roll(200, 5)
        t, h = s.params[:, 0], s.params[:, 1]
        expected = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
        assert np.array_equal(s.data.points, expected)

    def test_parametric_form_at_start(self):
        t = 1.5 * np.pi
        assert abs(t * np.cos(t)) <= 1e-12
        assert t * np.sin(t) == -t

    def test_radius_identity_and_ranges(self):
        s = gen_swiss_roll(800, 1)
        t, h = s.params[:, 0], s.params[:, 1]
        pts = s.data.points
        assert np.max(np.abs(pts[:, 0] ** 2 + pts[:, 2] ** 2 - t**2)) <= 1e-9
        assert np.all((1.5 * np.pi <= t) & (t <= 4.5 * np.pi))
        assert np.all((0 <= h) & (h <= 21.0))

    def test_deterministic(self):
        assert np.array_equal(gen_swiss_roll(800, 1).data.points, gen_swiss_roll(800, 1).data.points)

    def test_bad_count(self):
        with pytest.raises(BadCountError):
            gen_swiss_roll(5, 0)


class TestPuncturedSphere:
    def test_unit_norm(self):
        pts = gen_punctured_sphere(400, 2).data.points
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12

    def test_south_cap_empty(self):
        pts = gen_punctured_sphere(2000, 4).data.points
        assert np.all(pts[:, 2] >= np.cos(0.8 * np.pi))

    def test_denser_at_top(self):
        phi = gen_punctured_sphere(2000, 4).params[:, 0]
        top = np.sum(phi <= 0.2 * np.pi)
        bottom = np.sum((0.6 * np.pi <= phi) & (phi <= 0.8 * np.pi))
        assert top > bottom

    def test_deterministic(self):
        assert np.array_equal(
            gen_punctured_sphere(100, 9).data.points, gen_punctured_sphere(100, 9).data.points
        )

    def test_bad_count(self):
        with pytest.raises(BadCountError):
            gen_punctured_sphere(2, 0)


def write_idx_images(path, images):
    """images: (n, rows, cols) uint8 array."""
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + images.tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">II", 2049, len(labels)) + bytes(labels))


def reference_load_idx(path, labels_path=None, take_first=None, sample_random=False, seed=0):
    """The full-decode loader on valid files: every image to float64, then
    the kept rows. (points, labels)."""
    raw = Path(path).read_bytes()
    _, count, rows, cols = struct.unpack(">IIII", raw[:16])
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    points = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = None
    if labels_path is not None:
        labels = np.frombuffer(Path(labels_path).read_bytes(), dtype=np.uint8, count=count, offset=8).astype(np.int64)
    if take_first is not None:
        keep = min(int(take_first), count)
        if sample_random:
            idx = np.sort(np.random.default_rng(seed).choice(count, size=keep, replace=False))
        else:
            idx = np.arange(keep)
        points = points[idx]
        labels = None if labels is None else labels[idx]
    return points, labels


def feed_fifo(path, payload):
    """Make path a named pipe and write payload into it from a thread."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


class TestLoadIdx:
    def test_two_image_fixture_decoded(self, tmp_path):
        images = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [10, 20]]], dtype=np.uint8
        )
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images)
        data = load_idx(p)
        assert data.points.shape == (2, 4)
        assert np.array_equal(data.points, images.reshape(2, 4) / 255.0)
        assert data.labels is None

    def test_labels_joined(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, images)
        write_idx_labels(pl, [3, 7])
        data = load_idx(pi, labels_path=pl)
        assert np.array_equal(data.labels, [3, 7])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">IIII", 2049, 1, 2, 2) + bytes(4))
        with pytest.raises(BadMagicError):
            load_idx(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(b"\x00\x00\x08\x03\x00")
        with pytest.raises(TruncatedFileError):
            load_idx(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "cut.idx"
        p.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(5))
        with pytest.raises(TruncatedFileError):
            load_idx(p)

    def test_label_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, images)
        write_idx_labels(pl, [1, 2, 3])
        with pytest.raises(DimensionMismatchError):
            load_idx(pi, labels_path=pl)

    def test_label_magic_checked(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, images)
        pl.write_bytes(struct.pack(">II", 2051, 2) + bytes(2))
        with pytest.raises(BadMagicError):
            load_idx(pi, labels_path=pl)

    def test_take_first(self, tmp_path):
        images = np.arange(5 * 4, dtype=np.uint8).reshape(5, 2, 2)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, images)
        write_idx_labels(pl, [0, 1, 2, 3, 4])
        data = load_idx(pi, labels_path=pl, take_first=3)
        assert data.n == 3
        assert np.array_equal(data.labels, [0, 1, 2])
        assert np.array_equal(data.points, images.reshape(5, 4)[:3] / 255.0)

    @pytest.mark.parametrize("sample_random", [False, True])
    @pytest.mark.parametrize("take_first", [0, -3])
    def test_take_first_below_one_rejected(self, tmp_path, take_first, sample_random):
        pi = tmp_path / "i.idx"
        write_idx_images(pi, np.zeros((5, 2, 2), dtype=np.uint8))
        with pytest.raises(BadCountError, match=f"got {take_first}$"):
            load_idx(pi, take_first=take_first, sample_random=sample_random)

    def test_random_subset_deterministic_and_ordered(self, tmp_path):
        images = np.arange(10 * 4, dtype=np.uint8).reshape(10, 2, 2)
        pi = tmp_path / "i.idx"
        write_idx_images(pi, images)
        a = load_idx(pi, take_first=4, sample_random=True, seed=11)
        b = load_idx(pi, take_first=4, sample_random=True, seed=11)
        assert np.array_equal(a.points, b.points)
        # subset rows appear in original file order
        row_ids = [int(r[0] * 255) // 4 for r in a.points]
        assert row_ids == sorted(row_ids)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(13)
        images = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
        p = tmp_path / "rt.idx"
        write_idx_images(p, images)
        data = load_idx(p)
        assert np.array_equal((data.points * 255).astype(np.uint8).reshape(6, 3, 3), images)


    ORACLE_COUNT = 40

    @pytest.mark.parametrize("with_labels", [False, True])
    @pytest.mark.parametrize(
        "take_first, sample_random, seed",
        [(None, False, 0)]
        + [(t, False, 0) for t in (1, 17, ORACLE_COUNT, ORACLE_COUNT + 5)]
        + [(t, True, s) for t in (1, 17, ORACLE_COUNT, ORACLE_COUNT + 5) for s in (3, 11)],
    )
    def test_matches_full_decode(self, tmp_path, take_first, sample_random, seed, with_labels):
        rng = np.random.default_rng(21)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, rng.integers(0, 256, size=(self.ORACLE_COUNT, 5, 4), dtype=np.uint8))
        write_idx_labels(pl, list(rng.integers(0, 10, size=self.ORACLE_COUNT)))
        labels_path = pl if with_labels else None
        data = load_idx(pi, labels_path=labels_path, take_first=take_first, sample_random=sample_random, seed=seed)
        points, labels = reference_load_idx(pi, labels_path, take_first, sample_random, seed)
        assert data.points.dtype == np.float64 and np.array_equal(data.points, points)
        if with_labels:
            assert data.labels.dtype == np.int64 and np.array_equal(data.labels, labels)
        else:
            assert data.labels is None

    def test_take_first_reads_only_the_kept_rows(self, tmp_path):
        pi = tmp_path / "big.idx"
        write_idx_images(pi, np.full((20000, 28, 28), 7, dtype=np.uint8))
        data, peak = peak_bytes(lambda: load_idx(pi, take_first=10))
        assert data.n == 10
        # the whole file decoded would be 15.7 MB of bytes and 125 MB of float64
        assert peak < 1_000_000

    def test_truncated_label_payload(self, tmp_path):
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, np.zeros((2, 2, 2), dtype=np.uint8))
        pl.write_bytes(struct.pack(">II", 2049, 2) + bytes(1))
        with pytest.raises(TruncatedFileError, match=r"expected 2 label bytes, found 1$"):
            load_idx(pi, labels_path=pl)

    def test_one_pixel_images_refused_before_the_payload(self, tmp_path):
        p = tmp_path / "one.idx"
        write_idx_images(p, np.arange(20, dtype=np.uint8).reshape(20, 1, 1))
        with pytest.raises(BadDimError, match=r"one\.idx: 1x1 images have 1 pixel, need at least 2"):
            load_idx(p, take_first=5)
        # a header with no payload at all fails the same way, not as truncated
        p.write_bytes(struct.pack(">IIII", 2051, 20, 1, 1))
        with pytest.raises(BadDimError):
            load_idx(p)

    @pytest.mark.parametrize("side", [3, 2**31, 2**32 - 1])
    def test_zero_images_refused(self, tmp_path, side):
        # with no images no payload is due, so the size check passes at any
        # declared image size
        p = tmp_path / "empty.idx"
        p.write_bytes(struct.pack(">IIII", 2051, 0, side, side))
        with pytest.raises(BadCountError, match=r"empty\.idx: holds no images"):
            load_idx(p, take_first=2)

    def test_truncated_after_the_kept_rows(self, tmp_path):
        p = tmp_path / "cut.idx"
        p.write_bytes(struct.pack(">IIII", 2051, 5, 2, 2) + bytes(3 * 4))
        with pytest.raises(TruncatedFileError, match=r"expected 20 pixel bytes, found 12$"):
            load_idx(p, take_first=1)

    def test_named_pipes_read_whole(self, tmp_path):
        rng = np.random.default_rng(5)
        pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(pi, rng.integers(0, 256, size=(12, 3, 3), dtype=np.uint8))
        write_idx_labels(pl, list(rng.integers(0, 10, size=12)))
        fi, fl = tmp_path / "i.fifo", tmp_path / "l.fifo"
        writers = [feed_fifo(fi, pi.read_bytes()), feed_fifo(fl, pl.read_bytes())]
        data = load_idx(fi, labels_path=fl, take_first=5, sample_random=True, seed=2)
        for writer in writers:
            writer.join(timeout=5)
        points, labels = reference_load_idx(pi, pl, 5, True, 2)
        assert np.array_equal(data.points, points)
        assert np.array_equal(data.labels, labels)


class TestLoadCsv:
    def test_basic_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        data = load_csv(p)
        assert np.array_equal(data.points, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedRowsError):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,x\n")
        with pytest.raises(NonNumericCellError, match="column 1"):
            load_csv(p)
        p.write_text("1,2\n3,4\n5,6e\n")
        with pytest.raises(NonNumericCellError, match=r"x\.csv: row 2, column 1: '6e'$"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", " -Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        p = tmp_path / "f.csv"
        p.write_text(f"1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(NonFiniteError, match=rf"f\.csv: row 2, column 1: '{cell}' is not finite"):
            load_csv(p)

    @pytest.mark.parametrize("tail", ["\n", " \n", "\n\n \n"])
    def test_trailing_blank_lines_ignored(self, tmp_path, tail):
        clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
        clean.write_text("1,2\n3,4\n5,6\n")
        padded.write_text("1,2\n3,4\n5,6\n" + tail)
        assert np.array_equal(load_csv(padded).points, load_csv(clean).points)

    @pytest.mark.parametrize(
        "text, message",
        [("1,2\n\n3,4\n", "row 1 has 1 cells, expected 2"), ("\n \n", "no data rows"), ("", "no data rows")],
    )
    def test_blank_line_inside_or_only_blank_lines(self, tmp_path, text, message):
        p = tmp_path / "b.csv"
        p.write_text(text)
        with pytest.raises(RaggedRowsError, match=message):
            load_csv(p)

    def test_one_column_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        with pytest.raises(BadDimError, match=r"one\.csv: 1 column, need at least 2"):
            load_csv(p)

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "o.csv"
        p.write_text("9,8\n1,2\n5,5\n")
        assert load_csv(p).points[0].tolist() == [9.0, 8.0]

    def test_byte_order_mark_ignored(self, tmp_path):
        clean, bom = tmp_path / "clean.csv", tmp_path / "bom.csv"
        clean.write_bytes(b"1,2\n3,4\n5,6\n")
        bom.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        assert np.array_equal(load_csv(bom).points, load_csv(clean).points)

    @pytest.mark.parametrize(
        "raw, offset",
        [(b"\xff1,2\n3,4\n5,6\n", 0), (b"1,2\n3,\xc3\n", 6), (b"\xef\xbb\xbf1,2\n\x80,4\n", 7)],
    )
    def test_invalid_utf8_names_file_and_byte(self, tmp_path, raw, offset):
        p = tmp_path / "bad.csv"
        p.write_bytes(raw)
        with pytest.raises(NonNumericCellError, match=rf"bad\.csv: byte {offset} is not UTF-8"):
            load_csv(p)


FUZZ = settings(derandomize=True, deadline=None, max_examples=200)

# Mostly near-valid CSV text, sometimes arbitrary bytes.
csv_bytes = st.one_of(
    st.binary(max_size=64),
    st.text(st.sampled_from("0123456789.-+eE,; \t\r\nnaif_x\ufeff\u00e9"), max_size=64).map(str.encode),
    st.lists(st.binary(max_size=8), max_size=8).map(b",".join),
)
# Small fields most of the time, any 32-bit value otherwise.
u32 = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
magic = st.one_of(st.sampled_from([2051, 2049]), st.integers(0, 2**32 - 1))


def _idx_file(path, fmt, fields, payload, cut):
    """Writes a header of fmt packing fields, then payload; cut (or None)
    truncates the whole file to that many bytes."""
    raw = struct.pack(fmt, *fields) + payload
    path.write_bytes(raw if cut is None else raw[:cut])


class TestLoaderFuzz:
    """Any bytes yield a DataSet or a TopoStableError, never another exception."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @FUZZ
    @given(raw=csv_bytes)
    def test_load_csv(self, fuzz_dir, raw):
        p = fuzz_dir / "f.csv"
        p.write_bytes(raw)
        try:
            assert isinstance(load_csv(p), DataSet)
        except TopoStableError:
            pass

    @FUZZ
    @given(
        head=st.tuples(magic, u32, u32, u32),
        payload=st.binary(max_size=48),
        cut=st.none() | st.integers(0, 40),
        labels=st.none() | st.tuples(magic, u32, st.binary(max_size=8), st.none() | st.integers(0, 12)),
        take_first=st.none() | st.integers(-2, 6),
        sample_random=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_load_idx(self, fuzz_dir, head, payload, cut, labels, take_first, sample_random, seed):
        pi, pl = fuzz_dir / "i.idx", fuzz_dir / "l.idx"
        _idx_file(pi, ">IIII", head, payload, cut)
        if labels is not None:
            _idx_file(pl, ">II", labels[:2], labels[2], labels[3])
        try:
            data = load_idx(pi, pl if labels is not None else None, take_first, sample_random, seed)
            assert isinstance(data, DataSet)
        except TopoStableError:
            pass
