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

# rows formatted per write, so a large prediction file never builds all its strings at once
_WRITE_ROWS = 1 << 10


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


def read_labels(path: str | Path) -> LabelMatrix:
    """Read a label (or prediction) matrix; K is the largest class seen."""
    with _open(path) as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}:1: empty file")
        names = _cells(header)
        if not all(name.strip() for name in names):
            raise ValueError(f"{path}:1: malformed header {names!r}")
        array = _read_table(handle, path, len(names), np.int64, first_line=2)
    array.flags.writeable = False  # the matrix then holds this array, not a copy
    return LabelMatrix(array, n_classes=int(array.max()))


def write_predictions(path: str | Path, preds: LabelMatrix) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(f"y{m + 1}" for m in range(preds.n_outputs)) + "\n")
        for start in range(0, preds.n_samples, _WRITE_ROWS):
            block = preds.values[start : start + _WRITE_ROWS].astype(str).tolist()
            handle.write("\n".join(map(",".join, block)) + "\n")


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
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# M={m_out},K={k}\n")
        handle.write(",".join(f"p_{m + 1}_{c + 1}" for m in range(m_out) for c in range(k)) + "\n")
        flat = probs.values.reshape(n, m_out * k)
        for row in flat:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def read_features(path: str | Path) -> np.ndarray:
    with _open(path) as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}:1: empty file")
        return _read_table(handle, path, len(_cells(header)), float, first_line=2)


def write_features(path: str | Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=float)
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(f"x{d + 1}" for d in range(features.shape[1])) + "\n")
        for row in features:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
