"""CSV readers and writers: round trips, the writers' text against per-cell
reference loops, the byte reader of label files against the general reader,
line-numbered errors for corrupted files, the error messages of malformed
headers, and the memory a large label file takes to read."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metricopt import cli, fileio
from metricopt.confusion import LabelMatrix, ProbabilityField
from metricopt.fileio import (
    read_features,
    read_labels,
    read_probs,
    write_features,
    write_predictions,
    write_probs,
)

shapes = dict(n=st.integers(1, 30), m_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


def _probs(rng, n, m_out, k):
    """Dirichlet rows, with some rows one-hot so that 0.0 and 1.0 cells occur."""
    values = rng.dirichlet(np.ones(k), size=(n, m_out))
    one_hot = rng.random((n, m_out)) < 0.2
    values[one_hot] = np.eye(k)[rng.integers(k, size=int(one_hot.sum()))]
    return values


# one file of each kind: (writer of a seeded draw, reader, header lines)
KINDS = {
    "labels": (
        lambda path, rng, n, m: write_predictions(
            path, LabelMatrix(rng.integers(1, 8, size=(n, m)), 7)
        ),
        read_labels,
        1,
    ),
    "probs": (
        lambda path, rng, n, m: write_probs(path, ProbabilityField(_probs(rng, n, m, 3))),
        read_probs,
        2,
    ),
    "features": (
        lambda path, rng, n, m: write_features(path, rng.standard_normal((n, m)) * 1e3),
        read_features,
        1,
    ),
}


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 12), **shapes)
    @example(n=1, m_out=1, k=2, seed=0)
    def test_labels(self, n, m_out, k, seed):
        values = np.random.default_rng(seed).integers(1, k + 1, size=(n, m_out))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.csv"
            write_predictions(path, LabelMatrix(values, k))
            back = read_labels(path)
        assert back.values.dtype == np.int64
        np.testing.assert_array_equal(back.values, values)
        assert back.n_classes == values.max()

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 6), **shapes)
    @example(n=1, m_out=1, k=1, seed=0)
    @example(n=1, m_out=1, k=2, seed=0)
    def test_probs(self, n, m_out, k, seed):
        values = _probs(np.random.default_rng(seed), n, m_out, k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "probs.csv"
            write_probs(path, ProbabilityField(values))
            back = read_probs(path)
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=False, allow_subnormal=True),
        )
    )
    @example(np.array([[-0.0]]))
    @example(np.array([[5e-324, -np.inf, 1.7976931348623157e308]]))
    def test_features(self, features):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features(path, features)
            back = read_features(path)
        assert not back.flags.writeable
        assert back.shape == features.shape
        assert back.tobytes() == features.tobytes()


# cells per write block; small sizes put block boundaries inside every file
block_sizes = st.integers(1, 40)


def _reference_predictions(values: np.ndarray) -> str:
    lines = [",".join(f"y{m + 1}" for m in range(values.shape[1]))]
    lines += [",".join(str(int(v)) for v in row) for row in values]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@given(cells_per_block=block_sizes, k=st.integers(2, 120), **shapes)
@example(cells_per_block=1 << 12, n=1, m_out=1, k=2, seed=0)
def test_write_predictions_matches_per_cell_formatting(cells_per_block, n, m_out, k, seed):
    values = np.random.default_rng(seed).integers(1, k + 1, size=(n, m_out))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        fileio, "_WRITE_CELLS", cells_per_block
    ):
        path = Path(tmp) / "preds.csv"
        write_predictions(path, LabelMatrix(values, k))
        assert path.read_bytes() == _reference_predictions(values).encode()


# per-cell reference writers: one Python repr per value, one write per line
def _reference_write_probs(path, probs):
    n, m_out, k = probs.values.shape
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# M={m_out},K={k}\n")
        handle.write(",".join(f"p_{m + 1}_{c + 1}" for m in range(m_out) for c in range(k)) + "\n")
        flat = probs.values.reshape(n, m_out * k)
        for row in flat:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _reference_write_features(path, features):
    features = np.asarray(features, dtype=float)
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(f"x{d + 1}" for d in range(features.shape[1])) + "\n")
        for row in features:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _reference_write_synth(path, rows):
    with open(path, "w", newline="\n") as handle:
        handle.write("c1,c2,seed,utility_baseline,utility_consistent,pr\n")
        for row in rows:
            handle.write(
                f"{row['c1']!r},{row['c2']!r},{row['seed']},"
                f"{row['utility_baseline']!r},{row['utility_consistent']!r},{row['pr']!r}\n"
            )


# cells whose shortest text is signed, subnormal, or switches to exponent form
SPECIAL = [-0.0, 5e-324, 1e16, 1e-05]
float_cells = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL)


def _same_file(write, reference, cells_per_block, value) -> None:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        fileio, "_WRITE_CELLS", cells_per_block
    ):
        written, expected = Path(tmp) / "written.csv", Path(tmp) / "expected.csv"
        write(written, value)
        reference(expected, value)
        assert written.read_bytes() == expected.read_bytes()


@settings(max_examples=40, deadline=None)
@given(cells_per_block=block_sizes, k=st.integers(4, 6), **shapes)
@example(cells_per_block=1 << 12, n=1, m_out=1, k=4, seed=0)
def test_write_probs_matches_per_cell_formatting(cells_per_block, n, m_out, k, seed):
    values = _probs(np.random.default_rng(seed), n, m_out, k)
    values[0, 0] = [-0.0, 5e-324, 1e-05, 0.99999] + [0.0] * (k - 4)
    probs = ProbabilityField(values)
    _same_file(write_probs, _reference_write_probs, cells_per_block, probs)


@settings(max_examples=40, deadline=None)
@given(
    cells_per_block=block_sizes,
    features=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
        elements=float_cells,
    ),
)
@example(cells_per_block=1 << 12, features=np.array([SPECIAL]))
@example(cells_per_block=1, features=np.array([[np.inf], [-np.inf], [np.nan]]))
def test_write_features_matches_per_cell_formatting(cells_per_block, features):
    _same_file(write_features, _reference_write_features, cells_per_block, features)


grid_rows = st.lists(
    st.tuples(
        float_cells, float_cells, st.integers(0, 2**32 - 1), float_cells, float_cells, float_cells
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(cells_per_block=block_sizes, cells=grid_rows)
@example(cells_per_block=1 << 12, cells=[(0.05, 0.0, 0, *SPECIAL[1:])])
@example(cells_per_block=1, cells=[(-0.0, 1e16, 7, 1.0, 1e-05, 5e-324)] * 3)
def test_synth_grid_matches_per_cell_formatting(cells_per_block, cells):
    names = ("c1", "c2", "seed", "utility_baseline", "utility_consistent", "pr")
    rows = [dict(zip(names, row)) for row in cells]

    def synth(path, rows):
        argv = ["synth", "--c1", "0", "--c2", "0", "--n", "1", "--seeds", "0", "--out", str(path)]
        with mock.patch.object(cli, "performance_ratio_grid", lambda *args, **kwargs: rows):
            assert cli.main(argv) == 0

    _same_file(synth, _reference_write_synth, cells_per_block, rows)


CORRUPTIONS = {
    "non-numeric": lambda cells, i: cells[:i] + ["oops"] + cells[i + 1 :],
    "ragged": lambda cells, i: cells + ["1"],
    "digit separator": lambda cells, i: cells[:i] + ["1_0"] + cells[i + 1 :],
    "quoted": lambda cells, i: cells[:i] + [f'"{cells[i]}"'] + cells[i + 1 :],
    "hash": lambda cells, i: cells[:i] + ["#"] + cells[i + 1 :],
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    corruption=st.sampled_from(sorted(CORRUPTIONS)),
    blank_lines=st.booleans(),
    data=st.data(),
    **shapes,
)
def test_corrupted_cell_names_its_line(kind, corruption, blank_lines, data, n, m_out, seed):
    write, read, header_lines = KINDS[kind]
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        write(path, rng, n, m_out)
        lines = path.read_text().splitlines()
        row = data.draw(st.integers(header_lines, len(lines) - 1), label="row")
        cells = lines[row].split(",")
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        lines[row] = ",".join(CORRUPTIONS[corruption](cells, column))
        if blank_lines:
            # empty lines are skipped, but still count for the line number
            lines.insert(row, "")
            lines.insert(header_lines, "")
            row += 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read(path)
    message = str(info.value)
    assert message.startswith(f"{path}:{row + 1}: "), message
    if corruption == "ragged":
        assert f"columns, got {len(cells) + 1}" in message
    else:
        assert "expected an integer class" in message or "expected a number" in message


class TestGrammar:
    def test_blank_lines_are_skipped_in_every_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("y1,y2\n\n1,2\n\n3,1\n\n")
        np.testing.assert_array_equal(read_labels(path).values, [[1, 2], [3, 1]])
        path = tmp_path / "features.csv"
        path.write_text("x1\n\n0.5\n")
        np.testing.assert_array_equal(read_features(path), [[0.5]])

    @pytest.mark.parametrize("cell", ["1.0", "1.5", "1e0", "0x1", "١"])
    def test_an_integer_class_is_plain_decimal_digits(self, tmp_path, cell):
        path = tmp_path / "labels.csv"
        path.write_text(f"y1,y2\n1,2\n2,{cell}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected an integer class")):
            read_labels(path)

    def test_a_whitespace_only_line_is_not_blank(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("y1,y2\n1,2\n  \n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 2 columns, got 1")):
            read_labels(path)

    def test_a_class_beyond_int64_is_refused(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("y1\n1\n99999999999999999999\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            read_labels(path)


class TestErrors:
    @pytest.mark.parametrize(
        "kind, text",
        [("labels", "y1,y2\n"), ("probs", "# M=1,K=2\np_1_1,p_1_2\n"), ("features", "x1\n")],
    )
    def test_header_only(self, tmp_path, kind, text):
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: no data rows")):
            KINDS[kind][1](path)

    @pytest.mark.parametrize("kind", ["labels", "features"])
    def test_empty_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: empty file")):
            KINDS[kind][1](path)

    def test_empty_probability_file(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected metadata line")):
            read_probs(path)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_missing_file(self, tmp_path, kind):
        path = tmp_path / "absent.csv"
        with pytest.raises(ValueError, match=re.escape(f"missing file: {path}")):
            KINDS[kind][1](path)

    @pytest.mark.parametrize(
        "kind, header",
        [pytest.param("labels", header, id=header) for header in ["y1,,y3", ",", "y1, "]]
        + [pytest.param("features", "x1,,x3", id="features-x1,,x3")],
    )
    def test_malformed_label_header(self, tmp_path, kind, header):
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n1,1,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: malformed header")):
            KINDS[kind][1](path)

    @pytest.mark.parametrize("meta", ["# M=1", "# M=x,K=2", "# K=2,M="])
    def test_bad_metadata(self, tmp_path, meta):
        path = tmp_path / "probs.csv"
        path.write_text(f"{meta}\np_1_1,p_1_2\n0.5,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: malformed metadata")):
            read_probs(path)

    @pytest.mark.parametrize("header", ["p_1_2,p_1_1", "p_1_1", ""])
    def test_wrong_probability_header(self, tmp_path, header):
        path = tmp_path / "probs.csv"
        path.write_text(f"# M=1,K=2\n{header}\n0.5,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: header must be p_1_1,p_1_2")):
            read_probs(path)


# label bodies: rows of cells of 1, 2, 18 or 19 digits, some with leading zeros, then up to
# two single-character edits from the characters a label file might hold; or any text of them
BODY_CHARACTERS = "0123456789,\n\r +-._"


@st.composite
def label_bodies(draw):
    m_out = draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        return m_out, draw(st.text(BODY_CHARACTERS, max_size=40))
    cell = st.sampled_from([1, 2] * 3 + [18, 19]).flatmap(
        lambda digits: st.from_regex(rf"[0-9]{{{digits}}}", fullmatch=True)
    )
    cells = st.lists(cell, min_size=m_out, max_size=m_out)
    body = "".join(",".join(row) + "\n" for row in draw(st.lists(cells, max_size=6)))
    if body and draw(st.booleans()):
        body = body[:-1]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(body)))
        edit = draw(st.sampled_from(BODY_CHARACTERS))
        body = body[:at] + edit + body[at + draw(st.integers(0, 1)) :]
    return m_out, body


def _outcome(read, path):
    try:
        labels = read(path)
    except ValueError as exc:
        return str(exc)
    return labels.values.shape, labels.values.tobytes(), labels.n_classes


@settings(max_examples=300, deadline=None)
@given(table=label_bodies(), header_end=st.sampled_from(["\n", "\r\n", "\r"]),
       read_bytes=st.integers(1, 12))
@example(table=(2, "1,2\r\n3,4\r\n"), header_end="\r\n", read_bytes=4)
@example(table=(1, "1\n2\n"), header_end="\r", read_bytes=2)
@example(table=(2, "1,2\n3,4"), header_end="\n", read_bytes=3)
@example(table=(2, "1,2\n\n3,4\n\n"), header_end="\n", read_bytes=2)
@example(table=(1, "\n1\n"), header_end="\n", read_bytes=1)
@example(table=(2, "007,1\n"), header_end="\n", read_bytes=3)
@example(table=(1, "123456789012345678\n"), header_end="\n", read_bytes=5)
@example(table=(1, "1234567890123456789\n"), header_end="\n", read_bytes=5)
@example(table=(2, "1,9223372036854775807\n"), header_end="\n", read_bytes=7)
@example(table=(2, "1,2\n3\n"), header_end="\n", read_bytes=4)
@example(table=(2, "1,2,\n3,4\n"), header_end="\n", read_bytes=4)
@example(table=(2, "1,2,3\n4\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1 2\n3,4\n"), header_end="\n", read_bytes=16)
@example(table=(3, "12,,3\n"), header_end="\n", read_bytes=16)
@example(table=(1, "_0"), header_end="\n", read_bytes=1)
@example(table=(2, "1,2\n3,4\n"), header_end="\n", read_bytes=1 << 16)
@example(table=(1, "300\n255\n256\n1000\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1,2\r" * 40), header_end="\n", read_bytes=3)
@example(table=(2, "1,2\n" + ",".join(["123456789012345678"] * 2)), header_end="\n", read_bytes=5)
def test_byte_reader_agrees_with_the_general_reader(table, header_end, read_bytes):
    """The byte reader takes exactly the canonical files and parses them as
    ``_read_table`` does; ``read_labels`` gives what the general reader alone gives."""
    m_out, body = table
    row = r"[0-9]{1,18}" + r",[0-9]{1,18}" * (m_out - 1)
    canonical = header_end == "\n" and re.fullmatch(rf"(?:{row}\n)*{row}\n?", body) is not None
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_READ_BYTES", read_bytes):
        path = Path(tmp) / "labels.csv"
        header = ",".join(f"y{m + 1}" for m in range(m_out)) + header_end
        path.write_bytes((header + body).encode())
        fast = fileio._read_digits(path, m_out)
        assert (fast is not None) == canonical
        if fast is not None:
            with open(path) as handle:
                handle.readline()
                general = fileio._read_table(handle, path, m_out, np.int64, first_line=2)
            assert fast.dtype == general.dtype == np.int64
            assert fast.shape == general.shape
            assert fast.tobytes() == general.tobytes()
        got = _outcome(read_labels, path)
        with mock.patch.object(fileio, "_read_digits", lambda path, n_columns: None):
            assert got == _outcome(read_labels, path)


def test_a_body_without_newlines_is_given_up_within_a_block(tmp_path):
    """A body with no newline is never carried from block to block whole."""
    path = tmp_path / "labels.csv"
    path.write_bytes(b"y1,y2\n" + b"1,2\r" * 10**6)
    tracemalloc.start()
    try:
        assert fileio._read_digits(path, 2) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * fileio._READ_BYTES, f"peak {peak / 1e6:.1f} MB for a 4 MB body"


@pytest.mark.parametrize("digits", [1, 2], ids=["one-digit", "two-digit"])
def test_a_million_row_label_file_reads_within_four_arrays(tmp_path, digits):
    n = 10**6
    classes = np.random.default_rng(0).integers(10 ** (digits - 1), 10**digits, size=n)
    body = np.empty((n, digits + 1), dtype=np.uint8)
    for place in range(digits):
        body[:, digits - 1 - place] = ord("0") + classes // 10**place % 10
    body[:, digits] = ord("\n")
    path = tmp_path / "labels.csv"
    path.write_bytes(b"y1\n" + body.tobytes())
    tracemalloc.start()
    try:
        labels = read_labels(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    final = labels.values.nbytes
    assert final == 8 * n
    # the matrix holds the parsed array itself; the rest is one block of bytes and its temporaries
    assert peak <= 1.5 * final, f"peak {peak / 1e6:.1f} MB for an {final / 1e6:.0f} MB array"
    np.testing.assert_array_equal(labels.values[:, 0], classes)
