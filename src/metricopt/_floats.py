"""The cells of a float table, parsed from their bytes for ``fileio._read_floats``.

Only the commands that read a probability or feature file import this module.
"""

from __future__ import annotations

import numpy as np

# every operand of the digit step is uint64: numpy < 2 turns uint64 mixed with int64 into float64
_ASCII_ZEROS = np.uint64(0x3030303030303030)
# _KEEP[n] keeps the last n bytes of a little-endian window, its top n bytes
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)
# (multiplier, shift, mask) of the steps that join digits into pairs, quads and the octet
_JOIN = [(np.uint64(10 ** (1 << i)), np.uint64(8 << i), np.uint64(mask))
         for i, mask in enumerate([0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0xFFFFFFFF])]
_POW10_INT = np.array([10**i for i in range(20)], dtype=np.uint64)
_POW10_LONG = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
# x87 extended precision: a 64-bit significand, stored first in 16 bytes, and rounding at 64
# bits, so that 10**0 .. 10**27 are exact (5**27 < 2**63) and a divide is rounded once
X87 = (np.dtype(np.longdouble).itemsize == 16 and np.finfo(np.longdouble).nmant == 63
        and 1 + np.longdouble(2) ** -63 != 1)
# the offsets of the fraction's windows from its end
_FRACTION_WINDOWS = np.array([[0], [8], [16]])


def digit_windows(windows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The integer that the last ``valid`` (0 to 8) bytes, ASCII digits, of each
    little-endian uint64 of ``windows`` spell (Lemire's eight-digit step)."""
    x = windows ^ _ASCII_ZEROS
    x &= _KEEP.take(valid)
    for multiplier, shift, mask in _JOIN:
        high = x >> shift
        x *= multiplier
        x += high
        x &= mask
    return x


def parse_floats(text: np.ndarray, n_columns: int, flat: np.ndarray) -> int | None:
    """Rows of cells ``-?I(.F)?(e[+-]X)?``, with I, F and X runs of ASCII digits, as
    float64: see ``fileio._read_blocks``.

    The digits of I and F make an exact integer ``m``, eight at a time, and the value
    is ``m / 10**s`` rounded once in long double, then to float64 (after Clinger).
    That is the correctly rounded value unless the long double lands on a float64
    midpoint, where the second rounding may go wrong.  Those cells, and those of more
    than 8 digits in I, 24 in F or 3 in X, more than 19 significant digits, or ``s``
    outside 0..27, are read by ``float``, which rounds correctly as ``np.loadtxt`` does.
    """
    low = np.flatnonzero(text < ord("0"))  # separators, dots and signs
    exps = np.flatnonzero(text > ord("9"))
    kind = text.take(low)
    is_sep = (kind == ord(",")) | (kind == ord("\n"))
    seps = low.take(np.flatnonzero(is_sep))
    dot_tokens = np.flatnonzero(kind == ord("."))
    dots = low.take(dot_tokens)
    dot_cell = np.cumsum(is_sep).take(dot_tokens)  # the separators before each dot
    exp_cell = np.searchsorted(seps, exps)
    cells = len(seps)
    starts = np.concatenate(([0], seps[:-1] + 1))
    neg = text.take(starts) == ord("-")
    exp_signs = text.take(exps + 1)
    if (
        cells % n_columns
        or cells > flat.size
        or np.count_nonzero(kind == ord("\n")) != cells // n_columns
        or (text.take(seps[n_columns - 1 :: n_columns]) != ord("\n")).any()
        or (text.take(exps) != ord("e")).any()
        or ((exp_signs != ord("-")) & (exp_signs != ord("+"))).any()
        or (np.diff(dot_cell) < 1).any()
        or (np.diff(exp_cell) < 1).any()
        # so every other byte below "0" is a cell's "-" or an exponent's sign
        or len(low) != cells + len(dots) + np.count_nonzero(neg) + len(exps)
    ):
        return None  # a ragged row, or a cell with another byte or a second dot or e
    frac_end = seps.copy()
    frac_end[exp_cell] = exps
    int_end = frac_end.copy()
    int_end[dot_cell] = dots
    int_len = int_end - starts - neg
    frac_len = frac_end - int_end - 1  # -1 without a dot
    exp_len = seps.take(exp_cell) - exps - 2
    if (int_len < 1).any() or (frac_len.take(dot_cell) < 1).any() or (exp_len < 1).any():
        return None  # an empty part
    np.maximum(frac_len, 0, out=frac_len)
    # words[p] holds the 8 bytes before text[p]; a window of no digit may hold any bytes.
    # Indexed, not taken: take would first copy the whole view, 8 bytes a byte of text
    pad = np.empty(8 + len(text), dtype=np.uint8)
    pad[8:] = text
    words = np.ndarray((len(text) + 1,), dtype="<u8", buffer=pad, strides=(1,))
    ends = np.concatenate((int_end, frac_end - _FRACTION_WINDOWS, seps.take(exp_cell)), axis=None)
    valid = np.concatenate((int_len, frac_len - _FRACTION_WINDOWS, exp_len), axis=None)
    np.maximum(ends, 0, out=ends)
    digits = digit_windows(words[ends], np.clip(valid, 0, 8, out=valid))
    whole, f0, f1, f2 = digits[: 4 * cells].reshape(4, cells)
    mantissa = whole * _POW10_INT.take(frac_len, mode="clip")
    mantissa += f2 * _POW10_INT[16] + f1 * _POW10_INT[8] + f0
    exact = (int_len <= 8) & (frac_len <= 24)
    exact &= np.where(whole == 0, f2 < 1000, int_len + frac_len <= 19)  # m < 10**19 < 2**64
    exact[exp_cell] &= exp_len <= 3
    exponent = digits[4 * cells :].astype(np.intp)
    scale = frac_len  # s, in place: frac_len is not read again
    scale[exp_cell] += np.where(exp_signs == ord("-"), exponent, -exponent)
    exact &= (scale >= 0) & (scale <= 27)
    quotient = mantissa.astype(np.longdouble) / _POW10_LONG.take(scale, mode="clip")
    values = flat[:cells]
    values[:] = quotient
    # a midpoint: the 11 bits of the significand below float64's are 10000000000
    below = quotient.view(np.uint64)[::2] & np.uint64(0x7FF)
    slow = ~exact | (below == 0x400)
    np.negative(values, out=values, where=neg)
    for cell in np.flatnonzero(slow):
        values[cell] = float(text[starts[cell] : seps[cell]].tobytes())
    return cells
