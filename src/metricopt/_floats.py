"""The cells of a float table, parsed from their bytes for ``fileio._read_floats``.

Only the commands that read a probability or feature file import this module.
"""

from __future__ import annotations

import numpy as np

# every operand of the digit step is uint64: numpy < 2 turns uint64 mixed with int64 into float64
# _KEEP[n] keeps the last n bytes of a little-endian window, its top n bytes, as digits 0-9
_KEEP = np.array([(2**64 - 2 ** (64 - 8 * n)) & 0x0F0F0F0F0F0F0F0F for n in range(9)], np.uint64)
# fast_float's join: each byte to 10 * itself + the next (x * 2561 >> 8, byte 7 lost), then the
# pairs in bytes 0 and 4 and those in 2 and 6 multiplied into the top 32 bits; and 10**8
_PAIR, _BYTE, _PAIRS, _TWO_BYTES, _JOIN_04, _JOIN_26, _HALF, _E8 = np.array(
    [2561, 8, 0xFF000000FF, 16, 100 + (10**6 << 32), 1 + (10**4 << 32), 32, 10**8], np.uint64)
_POW10_LONG = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
# x87 extended precision: a 64-bit significand, stored first in 16 bytes, and rounding at 64
# bits, so that 10**0 .. 10**27 are exact (5**27 < 2**63) and a divide is rounded once
X87 = (np.dtype(np.longdouble).itemsize == 16 and np.finfo(np.longdouble).nmant == 63
        and 1 + np.longdouble(2) ** -63 != 1)


def eight_digits(windows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The integer that the last ``valid`` (clipped to 0-8) bytes, ASCII digits, of each
    little-endian uint64 of ``windows`` spell (Lemire's eight-digit step, fast_float's join)."""
    x = windows & _KEEP.take(valid, mode="clip")
    x *= _PAIR
    x >>= _BYTE
    high = (x >> _TWO_BYTES) & _PAIRS
    x &= _PAIRS
    x *= _JOIN_04
    x += high * _JOIN_26
    x >>= _HALF
    return x


def parse_floats(text: np.ndarray, n_columns: int, flat: np.ndarray) -> int | None:
    """Rows of cells ``-?I(.F)?(e[+-]X)?``, with I, F and X runs of ASCII digits, as
    float64: see ``fileio._read_blocks``.

    The digits of I and F, one run once I is moved over the dot, make an exact integer
    ``m``, eight at a time, and the value is ``m / 10**s`` rounded once in long double,
    then to float64 (after Clinger): the correctly rounded value unless the long double
    lands on a float64 midpoint.  Those cells, and those of more than 24 digits in I and F
    or 3 in X, of ``m`` at 10**19 or more, or of ``s`` outside 0..27, are read by
    ``float``, which rounds correctly as ``np.loadtxt`` does.
    """
    low = np.flatnonzero(text < ord("0"))  # separators, dots and signs
    exps = np.flatnonzero(text > ord("9"))
    kind = text.take(low)
    is_sep = (kind == ord(",")) | (kind == ord("\n"))
    seps = low.take(np.flatnonzero(is_sep))
    marks = np.flatnonzero(~is_sep)  # the tokens of dots and signs
    dot_rank = np.flatnonzero(kind.take(marks) == ord("."))
    dot_tokens = marks.take(dot_rank)
    dots = low.take(dot_tokens)
    dot_cell = dot_tokens - dot_rank  # the separators before each dot
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
        or (np.diff(dot_cell) < 1).any() or (np.diff(exp_cell) < 1).any()
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
    # words[p + 16] holds the 8 bytes before text[p]; a window of no digit may hold any bytes.
    # Indexed, not taken: take would first copy the whole view, 8 bytes a byte of text
    pad = np.concatenate((np.zeros(24, np.uint8), text))
    words = np.ndarray((len(text) + 17,), dtype="<u8", buffer=pad, strides=(1,))
    # shift each dotted cell's I onto its dot, last digit first: I and F become one digit run
    at, left = dots + 24, int_len.take(dot_cell)
    while len(at):
        pad[at] = pad[at - 1]
        at, left = at[left > 1] - 1, left[left > 1] - 1
    sig = int_len + frac_len
    # each cell's three windows end 0, 8 and 16 digits before the end of its run
    ends = np.concatenate((frac_end + 16, frac_end + 8, frac_end, seps.take(exp_cell) + 16))
    valid = np.concatenate((sig, sig - 8, sig - 16, exp_len))
    digits = eight_digits(words[ends], valid)
    f0, f1, f2 = digits[: 3 * cells].reshape(3, cells)
    exact = (sig <= 24) & (f2 < 1000)  # m < 10**19 < 2**64
    mantissa = (f2 * _E8 + f1) * _E8 + f0
    exact[exp_cell] &= exp_len <= 3
    scale = frac_len  # s, in place: frac_len is not read again
    scale[exp_cell] += np.where(exp_signs == ord("-"), 1, -1) * digits[3 * cells :].astype(np.intp)
    exact &= (scale >= 0) & (scale <= 27)
    quotient = mantissa.astype(np.longdouble) / _POW10_LONG.take(scale, mode="clip")
    values = flat[:cells]
    values[:] = quotient
    # a midpoint: the 11 bits of the significand below float64's are 10000000000
    slow = ~exact | (quotient.view(np.uint64)[::2] & np.uint64(0x7FF) == 0x400)
    np.negative(values, out=values, where=neg)
    for cell in np.flatnonzero(slow):  # from text: pad holds the moved digits
        values[cell] = float(text[starts[cell] : seps[cell]].tobytes())
    return cells
