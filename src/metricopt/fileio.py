"""CSV readers and writers for labels, probabilities, and features.

Label files carry a ``y1..yM`` header and integer classes 1..K.  Probability
files start with a ``# M=...,K=...`` metadata line followed by ``p_m_k``
columns in output-major order.  Feature files carry an ``x1..xD`` header.
Cells are plain, unquoted decimal numbers and empty lines are skipped.
Floats are written with shortest round-trip repr so files reproduce exactly;
classes are written by digit arithmetic on blocks of cells, to the same bytes.
Files in the form the writers write (label files, and float tables of finite
values) are parsed from their bytes, a block at a time; any other file by
``np.loadtxt``, to the same values and messages.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .confusion import LabelMatrix, ProbabilityField

# cells formatted per write, so a large file never builds all its text at once
_WRITE_CELLS = 1 << 12
# bytes of a label file parsed at a time, so its temporaries stay a few MB at any size
_READ_BYTES = 1 << 16
# bytes of a float table parsed at a time: its temporaries peak at about 14 bytes a byte, and
# its 130-odd numpy calls a block make 64 KiB blocks 1.14x slower to parse than 128 KiB
_READ_FLOAT_BYTES = 1 << 17


def _open(path: str | Path):
    if not Path(path).exists():
        raise ValueError(f"missing file: {path}")
    return open(path)


def _cells(line: str) -> list[str]:
    return line.rstrip("\n").split(",")


def _read_table(handle, path, n_columns: int, dtype, first_line: int) -> np.ndarray:
    """Parse the data lines from ``first_line`` on with one ``np.loadtxt`` call.

    numpy opens ``path`` itself and parses it in chunks.  Only when it refuses the
    table is ``handle`` scanned, with the same grammar, to name the first bad line.
    """
    with warnings.catch_warnings():
        # an empty table is reported below; numpy < 2 parses "1.5" as an int with a warning
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.loadtxt(
                path, dtype, delimiter=",", comments=None, skiprows=first_line - 1, ndmin=2
            )
        except (ValueError, DeprecationWarning) as exc:
            values, error = None, exc
    if values is None or values.shape[1] != n_columns:
        parse, what = (int, "an integer class") if dtype is np.int64 else (float, "a number")
        for line_no, line in enumerate(handle, start=first_line):
            cells = _cells(line)
            if cells == [""]:
                continue
            if len(cells) != n_columns:
                raise ValueError(f"{path}:{line_no}: expected {n_columns} columns, got {len(cells)}")
            for cell in cells:
                try:
                    # numpy takes ASCII digits only and no "_" separators, unlike int()/float()
                    if not cell.isascii() or "_" in cell:
                        raise ValueError
                    parse(cell)
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: expected {what}, got {cell!r}") from None
        if values is None:
            raise ValueError(f"{path}: {error}")
    if len(values) == 0:
        raise ValueError(f"{path}: no data rows")
    return values


def _read_blocks(path, n_columns: int, header_lines: int, dtype, block_bytes: int,
                 cell_bytes: int, parse) -> np.ndarray | None:
    """The ``dtype`` rows under ``header_lines`` lines of a canonical table, or None.

    A first pass counts the rows, so the result is allocated once; a second reads
    ``block_bytes`` at a time, each block cut at its last newline and its tail
    carried.  ``parse(text, n_columns, flat)`` fills the front of ``flat`` from the
    rows in ``text`` and returns their cell count, or None outside its grammar.  A
    row longer than ``cell_bytes`` a cell is left to ``_read_table`` too, so a body
    without newlines is given up within a block.
    """
    with open(path, "rb") as raw:
        for _ in range(header_lines):
            if b"\r" in raw.readline():
                return None  # text mode ends this header elsewhere
        body = raw.tell()
        rows, last = 0, b"\n"
        while block := raw.read(block_bytes):
            rows += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
            last = block[-1:]
        rows += last != b"\n"
        if rows == 0:
            return None
        out = np.empty((rows, n_columns), dtype=dtype)
        flat = out.reshape(-1)  # a view: the result owns its memory, so it is never copied
        raw.seek(body)
        done, rest = 0, b""
        while True:
            block = raw.read(block_bytes)
            if not block:
                if not rest:
                    break
                block = b"\n"  # the last row may lack its newline
            text = rest + block
            cut = text.rfind(b"\n") + 1
            text, rest = np.frombuffer(text, dtype=np.uint8, count=cut), text[cut:]
            if len(rest) >= cell_bytes * n_columns:
                return None  # no newline within a canonical row's most bytes
            cells = parse(text, n_columns, flat[done:]) if cut else 0
            if cells is None:
                return None
            done += cells
    return out if done == flat.size else None


def _parse_digits(text: np.ndarray, n_columns: int, flat: np.ndarray) -> int | None:
    """Rows of cells of 1 to 18 ASCII digits, as int64: see ``_read_blocks``.

    A block of one-digit cells is ``n_columns`` (digit, separator) byte pairs a row, so
    one little-endian uint16 view checks and parses it; any other block is scanned for
    its separators.
    """
    if len(text) % (2 * n_columns) == 0 and len(text) // 2 <= flat.size:
        # each pair less ("1", its column's separator) lies in 0..8 exactly when it is a
        # digit 1-9 and that separator: a lower digit byte borrows from the separator byte
        lowest = np.full(n_columns, ord(",") << 8 | ord("1"), dtype=np.uint16)
        lowest[-1] = ord("\n") << 8 | ord("1")
        digits = text.view("<u2").reshape(-1, n_columns) - lowest
        if (digits <= 8).all():
            np.add(digits.reshape(-1), 1, out=flat[: digits.size])
            return digits.size
    codes = text - ord("0")  # wraps every non-digit above 9
    if codes[0] > 9:
        return None  # an empty cell, or a byte that is neither digit nor separator
    # the last digit of each cell, if none is empty: the byte before each separator
    last_digits = np.flatnonzero(codes[1:] > 9)
    cells = len(last_digits)
    block_rows = cells // n_columns
    if (
        cells % n_columns
        or cells > flat.size
        or np.count_nonzero(text == ord("\n")) != block_rows
        or np.count_nonzero(text == ord(",")) != cells - block_rows
        or (text[last_digits[n_columns - 1 :: n_columns] + 1] != ord("\n")).any()
    ):
        return None  # a separator other than "," and "\n", or a ragged row
    digits = codes.take(last_digits)
    if (digits > 9).any():
        return None  # an empty cell
    values = flat[:cells]
    values[:] = digits
    # cells of more than `place` digits, until every digit in the block is counted
    left, alive = len(text) - 2 * cells, True
    for place in range(1, 18):
        if not left:
            break
        # a first cell of `place` digits or fewer wraps to the block's end; masked out
        digits = codes.take(last_digits - place)
        alive &= digits <= 9
        left -= np.count_nonzero(alive)
        # widened first: numpy < 2 would keep a uint8 product for 10**2
        values += np.where(alive, digits, 0).astype(np.int64) * 10**place
    return None if left else cells  # left: a cell of 19 digits or more


def _read_digits(path: str | Path, n_columns: int) -> np.ndarray | None:
    """The int64 rows under the header of a canonical integer table, or None.

    Canonical is what ``write_predictions`` writes: cells of 1 to 18 ASCII digits,
    ``,`` between them, ``\\n`` after each row (the last may lack it), exactly
    ``n_columns`` cells a row, no blank lines.  Anything else is left to ``_read_table``.
    """
    return _read_blocks(path, n_columns, 1, np.int64, _READ_BYTES, 19, _parse_digits)


def _read_floats(path: str | Path, n_columns: int, header_lines: int) -> np.ndarray | None:
    """The float64 rows under ``header_lines`` lines of a canonical float table, or None.

    Canonical is what ``write_probs`` and ``write_features`` write for finite values,
    as ``_floats.parse_floats`` spells it out, with rows as in ``_read_digits``.  Needs
    an x87 long double.
    """
    from . import _floats  # imported here, so a command that reads no float table never loads it

    if not _floats.X87:
        return None
    # 40 bytes a cell: more than a repr cell (at most 24) or %.17e cell (25) and its separator
    return _read_blocks(path, n_columns, header_lines, np.float64, _READ_FLOAT_BYTES, 40,
                        _floats.parse_floats)


def _read_headed(path: str | Path, dtype) -> np.ndarray:
    """The read-only table under a one-line header of non-empty column names."""
    with _open(path) as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}:1: empty file")
        names = _cells(header)
        if not all(name.strip() for name in names):
            raise ValueError(f"{path}:1: malformed header {names!r}")
        if dtype is np.int64:
            array = _read_digits(path, len(names))
        else:
            array = _read_floats(path, len(names), 1)
        if array is None:
            array = _read_table(handle, path, len(names), dtype, first_line=2)
    array.flags.writeable = False  # a matrix then holds this array, not a copy
    return array


def _write_table(path: str | Path, head_lines: list[str], table: np.ndarray) -> None:
    """Write ``head_lines``, then each row of ``table``, each cell as the ``repr`` of
    its Python value from ``tolist``: the shortest text that reads back the same."""
    rows = max(1, _WRITE_CELLS // max(1, table.shape[1]))
    with open(path, "w", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in head_lines))
        for start in range(0, len(table), rows):
            block = table[start : start + rows].tolist()
            handle.write("\n".join(",".join(map(repr, row)) for row in block) + "\n")


def read_labels(path: str | Path) -> LabelMatrix:
    """Read a label (or prediction) matrix; K is the largest class seen."""
    array = _read_headed(path, np.int64)
    lowest = int(array.min())
    if lowest < 1:
        raise ValueError(f"{path}: classes must be at least 1, found {lowest}")
    return LabelMatrix(array, n_classes=int(array.max()))


def write_predictions(path: str | Path, preds: LabelMatrix) -> None:
    """Write the ``y1..yM`` header, then each row's classes in decimal, a block of
    ``_WRITE_CELLS`` cells at a time: the bytes ``_write_table`` writes for them."""
    values = preds.values
    n, m_out = values.shape
    width = len(str(int(values.max())))
    rows = max(1, _WRITE_CELLS // m_out)
    with open(path, "wb") as handle:
        handle.write(",".join(f"y{m + 1}" for m in range(m_out)).encode() + b"\n")
        for start in range(0, n, rows):
            # in the classes' own dtype: no quotient, product or digit exceeds its class
            left = values[start : start + rows]
            cells = np.empty((*left.shape, width + 1), dtype=np.uint8)  # digits, separator
            keep = np.ones(cells.shape, dtype=bool)
            for place in reversed(range(width)):  # the last digit first
                keep[..., place] = left > 0  # no leading zeros: every class is at least 1
                higher = left // 10
                np.add(left - 10 * higher, ord("0"), out=cells[..., place], casting="unsafe")
                left = higher
            cells[..., width] = ord(",")
            cells[:, -1, width] = ord("\n")
            handle.write(cells[keep].tobytes())


def read_probs(path: str | Path) -> ProbabilityField:
    """Read a probability field; the metadata line fixes M and K."""
    with _open(path) as handle:
        meta_line = handle.readline().rstrip("\n")
        if not meta_line.startswith("#"):
            raise ValueError(f'{path}:1: expected metadata line "# M=...,K=..."')
        meta = dict(part.strip().partition("=")[::2] for part in meta_line.lstrip("#").split(","))
        try:
            m_out, k = int(meta["M"]), int(meta["K"])
        except (KeyError, ValueError):
            m_out = k = 0
        if min(m_out, k) < 1:
            raise ValueError(f"{path}:1: malformed metadata {meta_line!r}")
        expected_header = [f"p_{m + 1}_{c + 1}" for m in range(m_out) for c in range(k)]
        if [c.strip() for c in _cells(handle.readline())] != expected_header:
            raise ValueError(f"{path}:2: header must be {','.join(expected_header)}")
        array = _read_floats(path, m_out * k, 2)
        if array is None:
            array = _read_table(handle, path, m_out * k, float, first_line=3)
    array.flags.writeable = False
    return ProbabilityField(array.reshape(len(array), m_out, k))


def write_probs(path: str | Path, probs: ProbabilityField) -> None:
    n, m_out, k = probs.values.shape
    header = ",".join(f"p_{m + 1}_{c + 1}" for m in range(m_out) for c in range(k))
    _write_table(path, [f"# M={m_out},K={k}", header], probs.values.reshape(n, m_out * k))


def read_features(path: str | Path) -> np.ndarray:
    return _read_headed(path, float)


def write_features(path: str | Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=float)
    _write_table(path, [",".join(f"x{d + 1}" for d in range(features.shape[1]))], features)
