"""CSV readers and writers for labels, probabilities, and features.

Label files carry a ``y1..yM`` header and integer classes 1..K.  Probability
files start with a ``# M=...,K=...`` metadata line followed by ``p_m_k``
columns in output-major order.  Feature files carry an ``x1..xD`` header.
Cells are plain, unquoted decimal numbers and empty lines are skipped.
Floats are written with shortest round-trip repr so files reproduce exactly.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .confusion import LabelMatrix, ProbabilityField

# cells formatted per write, so a large file never builds all its strings at once
_WRITE_CELLS = 1 << 12


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


def _read_headed(path: str | Path, dtype) -> np.ndarray:
    """The read-only table under a one-line header of non-empty column names."""
    with _open(path) as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}:1: empty file")
        names = _cells(header)
        if not all(name.strip() for name in names):
            raise ValueError(f"{path}:1: malformed header {names!r}")
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
    return LabelMatrix(array, n_classes=int(array.max()))


def write_predictions(path: str | Path, preds: LabelMatrix) -> None:
    header = ",".join(f"y{m + 1}" for m in range(preds.n_outputs))
    _write_table(path, [header], preds.values)


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
            raise ValueError(f"{path}:1: malformed metadata {meta_line!r}") from None
        expected_header = [f"p_{m + 1}_{c + 1}" for m in range(m_out) for c in range(k)]
        if [c.strip() for c in _cells(handle.readline())] != expected_header:
            raise ValueError(f"{path}:2: header must be {','.join(expected_header)}")
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
