"""CSV readers and writers: round trips, the writers' text against per-cell
reference loops, the byte readers of label and float files against the general
reader, line-numbered errors for corrupted files, the error messages of
malformed headers, and the memory a large label or probability file takes to
read."""

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

from metricopt import _floats, cli, fileio
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


# class dtypes a LabelMatrix may hold; the writer's arithmetic runs in each
CLASS_DTYPES = [np.uint8, np.int16, np.int32, np.int64, np.intp, np.uint64]


@settings(max_examples=80, deadline=None)
@given(
    cells_per_block=block_sizes,
    k=st.integers(2, 120) | st.integers(2, 2**64 - 1),
    dtype=st.sampled_from(CLASS_DTYPES),
    n=shapes["n"],
    m_out=st.integers(1, 50),  # often more than a block of cells
    seed=shapes["seed"],
)
@example(cells_per_block=1 << 12, n=1, m_out=1, k=2, dtype=np.int64, seed=0)
@example(cells_per_block=1 << 12, n=2, m_out=(1 << 12) + 3, k=130, dtype=np.uint8, seed=0)
@example(cells_per_block=7, n=30, m_out=3, k=10**18 - 1, dtype=np.int64, seed=0)
@example(cells_per_block=5, n=20, m_out=2, k=2**64 - 1, dtype=np.uint64, seed=0)
def test_write_predictions_matches_per_cell_formatting(cells_per_block, n, m_out, k, dtype, seed):
    rng = np.random.default_rng(seed)
    k = min(k, int(np.iinfo(dtype).max))
    values = rng.integers(1, k, endpoint=True, size=(n, m_out), dtype=np.uint64)
    # cells of every length up to K's side by side: each class loses a random number of digits
    cut = np.uint64(10) ** rng.integers(0, len(str(k)), size=values.shape).astype(np.uint64)
    values = np.maximum(values // cut, 1).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        fileio, "_WRITE_CELLS", cells_per_block
    ):
        path = Path(tmp) / "preds.csv"
        write_predictions(path, LabelMatrix(values, k))
        assert path.read_bytes() == _reference_predictions(values).encode()


def test_writing_predictions_holds_one_block_of_cells(tmp_path):
    """At the eval-preds size (N=100 000, M=8) the writer's temporaries are those of
    one block of ``_WRITE_CELLS`` cells, not of the 800 000 the file holds."""
    preds = LabelMatrix(np.random.default_rng(0).integers(1, 6, size=(100_000, 8)), 5)
    tracemalloc.start()
    try:
        write_predictions(tmp_path / "preds.csv", preds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"


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

    @pytest.mark.parametrize(
        "meta", ["# M=1", "# M=x,K=2", "# K=2,M=", "# M=0,K=3", "# M=1,K=0", "# M=-1,K=2"]
    )
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
# one-digit tables, parsed as (digit, separator) pairs, across block boundaries
@example(table=(1, "1\n2\n3\n4\n5\n6\n7\n8\n9\n"), header_end="\n", read_bytes=3)
@example(table=(3, "1,2,3\n4,5,6\n7,8,9"), header_end="\n", read_bytes=5)
@example(table=(4, "9,8,7,6\n5,4,3,2\n1,2,3,4\n"), header_end="\n", read_bytes=9)
@example(table=(2, "1,2\n3,4\n5,6\n7,8\n9,1"), header_end="\n", read_bytes=4)
# pair-aligned bodies that are not one-digit tables, so they take the separator scan
@example(table=(1, "12\n34\n"), header_end="\n", read_bytes=16)
@example(table=(1, "123\n456\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1,2,3,4\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1,0\n2,3\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1,_\n2,3\n"), header_end="\n", read_bytes=16)
@example(table=(2, "1,2\n\n"), header_end="\n", read_bytes=16)
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


@settings(max_examples=40, deadline=None)
@given(m_out=st.integers(1, 8), blocks=st.floats(0, 3), final_newline=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_one_digit_tables_parse_to_the_general_readers_bits(m_out, blocks, final_newline, seed):
    """Tables of classes 1-9 up to three 64 KiB blocks long, as ``write_predictions``
    writes them, the last newline perhaps removed."""
    n = max(1, int(blocks * fileio._READ_BYTES / (2 * m_out)))
    classes = np.random.default_rng(seed).integers(1, 10, size=(n, m_out))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        write_predictions(path, LabelMatrix(classes, 9))
        if not final_newline:
            path.write_bytes(path.read_bytes()[:-1])
        fast = fileio._read_digits(path, m_out)
        with open(path) as handle:
            handle.readline()
            general = fileio._read_table(handle, path, m_out, np.int64, first_line=2)
    assert fast.dtype == general.dtype == np.int64
    assert fast.shape == general.shape == classes.shape
    assert fast.tobytes() == general.tobytes()


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


# a repr whose long double quotient m / 10**s lies on a float64 midpoint, so that rounding
# it again to float64 gives the wrong neighbour
MIDPOINT = 0.839396101051679
# cells at the ends of float64's range, in exponent form, and at and one ulp around 2**k
FLOAT_EXAMPLES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 1e22, 0.1, MIDPOINT]
FLOAT_EXAMPLES += [np.nextafter(2.0**k, side) for k in (-60, -1, 0, 1, 52, 53, 60)
                   for side in (-np.inf, 0.0, np.inf)]


def _bits_to_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# any finite bit pattern, or a value that repr writes without an exponent
float_tables = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.integers(0, 2**64 - 1).map(_bits_to_float).filter(np.isfinite)
    | st.floats(-1e9, 1e9)
    | st.floats(0, 1)
    | st.sampled_from(FLOAT_EXAMPLES),
)


def _write_float_table(path, kind, table):
    """Write ``table`` as ``write_probs`` (M=1) or ``write_features`` would, its values
    unchecked; the number of header lines."""
    columns = range(1, table.shape[1] + 1)
    if kind == "probs":
        head = [f"# M=1,K={len(columns)}", ",".join(f"p_1_{column}" for column in columns)]
    else:
        head = [",".join(f"x{column}" for column in columns)]
    fileio._write_table(path, head, table)
    return len(head)


def _float_outcome(read, path):
    try:
        values = read(path)
    except ValueError as exc:
        return str(exc)
    values = getattr(values, "values", values)
    return values.shape, values.tobytes()


@settings(max_examples=150, deadline=None)
@given(table=float_tables, kind=st.sampled_from(["probs", "features"]),
       read_bytes=st.sampled_from([1, 7, 64, 1 << 18]))
@example(table=np.array([FLOAT_EXAMPLES[:4]]), kind="features", read_bytes=1 << 18)
@example(table=np.array([FLOAT_EXAMPLES[4:8]]), kind="features", read_bytes=7)
@example(table=np.array([[MIDPOINT, -MIDPOINT]]), kind="features", read_bytes=1 << 18)
@example(table=np.array([[12.5, MIDPOINT, -123.25]]), kind="features", read_bytes=1 << 18)
@example(table=np.array(FLOAT_EXAMPLES[9:]).reshape(-1, 3), kind="probs", read_bytes=64)
@example(table=np.array([[0.25, 0.75], [1.0, 0.0]]), kind="probs", read_bytes=1)
def test_float_byte_reader_agrees_with_the_general_reader(table, kind, read_bytes):
    """The float byte reader parses every file the writers write as ``_read_table``
    does, to the bit; the readers give what the general reader alone gives."""
    read = read_probs if kind == "probs" else read_features
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        fileio, "_READ_FLOAT_BYTES", read_bytes
    ):
        path = Path(tmp) / f"{kind}.csv"
        header_lines = _write_float_table(path, kind, table)
        fast = fileio._read_floats(path, table.shape[1], header_lines)
        assert (fast is not None) == _floats.X87
        if fast is not None:
            with open(path) as handle:
                for _ in range(header_lines):
                    handle.readline()
                general = fileio._read_table(
                    handle, path, table.shape[1], float, first_line=header_lines + 1
                )
            assert fast.dtype == general.dtype == np.float64
            assert fast.shape == general.shape == table.shape
            assert fast.tobytes() == general.tobytes() == table.tobytes()
        got = _float_outcome(read, path)
        with mock.patch.object(fileio, "_read_floats", lambda *args: None):
            assert got == _float_outcome(read, path)


@pytest.mark.skipif(not _floats.X87, reason="the midpoint is one of x87 long double")
def test_the_midpoint_example_lands_on_a_midpoint():
    """``MIDPOINT`` keeps testing the re-read: its quotient rounds to the wrong float64."""
    quotient = np.longdouble(839396101051679) / np.longdouble(10**15)
    assert quotient.reshape(1).view(np.uint64)[0] & 0x7FF == 0x400
    assert float(np.float64(quotient)) != MIDPOINT


# (cell, whether the byte reader gives the file up); a cell it keeps is read by float()
# when it has too many digits for the windows
ODD_CELLS = [
    ("0.500000", False),  # %.6f
    ("1E-5", True),
    ("+0.5", True),
    (".5", True),
    ("5.", True),
    (" 0.5", True),
    ("0.5 ", True),
    ("nan", True),
    ("-inf", True),
    ("1_0.5", True),
    ("1e5", True),
    ("1e+", True),
    ("1.5e-05e-05", True),
    ("1.2.3", True),
    ("--1.0", True),
    ("-", True),
    ("0x1p-2", True),
    ("", True),
    ("7", False),
    ("-7e-05", False),
    ("1e-0005", False),
    ("1234567890.123456789", False),  # 19 digits, 10 of them whole
    ("123456789.5", False),  # 9 whole digits, in the windows
    ("-12345678.125", False),
    ("00012.5", False),
    ("0.000000000000000000001234", False),  # 25 digits in I and F
    ("9999999999999999999", False),  # m < 10**19, exact
    ("12345678901234567890", False),  # m >= 10**19: the top window holds 1000 or more
    ("1.23456789012345678901234", False),  # 24 digits, the top window at 1234
    ("0.12345678901234567890", False),  # 20 significant digits
    ("0.123456789012345678901", False),  # 21 significant digits: m would pass 2**64
    ("0.1234567890123456789012345", False),  # 25 fraction digits
    ("1.234567890123456e+16", False),  # s = -1
    ("1.2345678901234567e-11", False),  # s = 27
    ("1.2345678901234567e-12", False),  # s = 28
    ("1.5e-100000005", False),  # an exponent of 9 digits
    ("12345678.123456789012", False),
    ("1.7976931348623157e+308", False),
    ("4.9406564584124654e-324", False),
]


@pytest.mark.parametrize(
    "cell, given_up", ODD_CELLS, ids=[cell or "empty" for cell, _ in ODD_CELLS]
)
def test_an_odd_cell_keeps_the_general_readers_outcome(tmp_path, cell, given_up):
    path = tmp_path / "features.csv"
    path.write_text(f"x1,x2\n0.25,{cell}\n-3.5,0.125\n")
    fast = fileio._read_floats(path, 2, 1)
    assert (fast is None) == (given_up or not _floats.X87)
    got = _float_outcome(read_features, path)
    with mock.patch.object(fileio, "_read_floats", lambda *args: None):
        assert got == _float_outcome(read_features, path)
    if fast is not None:
        assert fast[0, 1] == float(cell)


@pytest.mark.parametrize(
    "body",
    ["0.25,0.75\r\n0.5,0.5\r\n", "0.25,0.75\n\n0.5,0.5\n", "0.25,0.75,\n0.5,0.5\n",
     "0.25,0.75\n0.5\n", "0.25;0.75\n", "0.25,0.75\n0.5,0.5"],
    ids=["CRLF", "blank line", "trailing comma", "ragged", "semicolon", "no last newline"],
)
def test_an_odd_row_keeps_the_general_readers_outcome(tmp_path, body):
    path = tmp_path / "probs.csv"
    path.write_text("# M=1,K=2\np_1_1,p_1_2\n" + body)
    fast = fileio._read_floats(path, 2, 2)
    assert (fast is not None) == (body == "0.25,0.75\n0.5,0.5" and _floats.X87)
    got = _float_outcome(read_probs, path)
    with mock.patch.object(fileio, "_read_floats", lambda *args: None):
        assert got == _float_outcome(read_probs, path)


def test_without_an_x87_long_double_the_general_reader_reads_floats(tmp_path):
    """Where the long double is not x87 extended precision (MSVC's float64, ARM's
    binary128 or double-double), float tables go to ``np.loadtxt`` alone."""
    rng = np.random.default_rng(0)
    probs, features = tmp_path / "probs.csv", tmp_path / "features.csv"
    write_probs(probs, ProbabilityField(_probs(rng, 50, 2, 3)))
    write_features(features, rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-9, 9, (50, 3)))
    outcomes = [_float_outcome(read_probs, probs), _float_outcome(read_features, features)]
    with mock.patch.object(_floats, "X87", False):
        assert fileio._read_floats(probs, 6, 2) is None
        assert outcomes == [_float_outcome(read_probs, probs),
                            _float_outcome(read_features, features)]


@pytest.mark.parametrize("valid", range(-2, 11))
def test_the_eight_digit_step_matches_int(valid):
    """Each window's last ``valid`` bytes, clipped to 0-8, are its digits; the bytes before
    them are masked off, whatever they hold.  Every operand of the join stays uint64, so
    numpy < 2 keeps every digit of its 2**32-scaled multipliers."""
    digits = min(max(valid, 0), 8)
    rng = np.random.default_rng(digits)
    texts = [bytes(rng.integers(ord("0"), ord("9") + 1, 8, dtype=np.uint8)) for _ in range(200)]
    texts += [b"9" * 8, b"0" * 8]
    texts += [junk[: 8 - digits] + b"9" * digits for junk in (b"-e.,\n+_x", b"\xff" * 8)]
    windows = np.array([int.from_bytes(text, "little") for text in texts], dtype=np.uint64)
    got = _floats.eight_digits(windows, np.full(len(texts), valid))
    assert got.dtype == np.uint64
    assert got.tolist() == [int(text[8 - digits :] or b"0") for text in texts]


def test_a_million_row_probability_file_reads_within_one_and_a_half_arrays(tmp_path):
    n, k = 10**6, 4
    rows = _probs(np.random.default_rng(0), 1000, 1, k)
    path = tmp_path / "probs.csv"
    write_probs(path, ProbabilityField(rows))
    meta, header, body = path.read_bytes().split(b"\n", 2)
    path.write_bytes(meta + b"\n" + header + b"\n" + body * (n // len(rows)))
    tracemalloc.start()
    try:
        probs = read_probs(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    final = probs.values.nbytes
    assert final == 8 * n * k
    # the field holds the parsed array itself; the rest is one block of bytes and its temporaries
    assert peak <= 1.5 * final, f"peak {peak / 1e6:.1f} MB for a {final / 1e6:.0f} MB array"
    assert probs.values.tobytes() == np.tile(rows, (n // len(rows), 1, 1)).tobytes()
