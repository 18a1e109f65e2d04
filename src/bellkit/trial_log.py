"""Text codec of a trial log: numpy kernels over its bytes.

`trial_sim.trial_log_to_text` and `trial_sim.parse_trial_log` are the
interface and state the grammar; they import this module on first use,
so runs that write or read no trial log do not load it.  Both directions
take their tables from `trial_sim.TRIAL_CELLS` and handle a chunk of
records or bytes at a time, so their temporaries do not grow with the
log.
"""

from __future__ import annotations

import numpy as np

from .trial_sim import TRIAL_CELLS

#: Log text of each cell.
_CELL_TEXT = [",".join(map(str, cell)) for cell in TRIAL_CELLS]
#: Bytes after the index of each cell's log line, ",x,y,a,b\n", and the same
#: zero-padded to one width as an item per cell (a zero byte is never written).
_RECORD_BYTES = [f",{text}\n".encode() for text in _CELL_TEXT]
_RECORD_WIDTH = max(map(len, _RECORD_BYTES))
_RECORD_ITEMS = np.frombuffer(b"".join(b.ljust(_RECORD_WIDTH, b"\0") for b in _RECORD_BYTES),
                              dtype=f"V{_RECORD_WIDTH}")
#: Records or bytes the codec handles per step, which bounds its temporaries.
_CHUNK = 1 << 14
_CHUNK_BYTES = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)
#: ASCII whitespace that str.strip removes, other than the line feed.
_PAD = np.array([c < 128 and chr(c).isspace() and c != 10 for c in range(256)])
_HEADER = b"trial_index"
#: A 3-bit code of each byte that occurs in a ",x,y,a,b" tail (0 for any other).
_SYMBOL_CODE = {byte: code for code, byte in enumerate(b",-01u", 1)}
_SYMBOL = np.array([_SYMBOL_CODE.get(byte, 0) for byte in range(256)], dtype=np.int32)


def _tail_table(length: int):
    """(multiplier, tail of each slot, cell of each slot) of a perfect hash of
    the record tails of one length.

    A tail is packed as the _SYMBOL codes of its bytes from the last, 3 bits
    each, and kept in slot (packed * multiplier mod 2**32) >> 26; an empty
    slot holds -1.
    """
    tails = {sum(_SYMBOL_CODE[c] << 3 * k for k, c in enumerate(reversed(b[:-1]))): cell
             for cell, b in enumerate(_RECORD_BYTES) if len(b) - 1 == length}

    def slot(packed: int) -> int:
        return (packed * multiplier & 0xFFFFFFFF) >> 26

    multiplier = 0x9E3779B1  # odd; the first that separates the tails
    while len({slot(packed) for packed in tails}) < len(tails):
        multiplier += 2
    slot_tail, slot_cell = [-1] * 64, [-1] * 64
    for packed, cell in tails.items():
        slot_tail[slot(packed)], slot_cell[slot(packed)] = packed, cell
    return (np.uint32(multiplier), np.array(slot_tail, dtype=np.int32),
            np.array(slot_cell, dtype=np.int8))


#: No tail is a suffix of another, as each has exactly four commas, so at most
#: one length matches the end of a line.
_TAILS = {length: _tail_table(length) for length in sorted({len(b) - 1 for b in _RECORD_BYTES})}


def _index_digits(start: int, count: int, place: int) -> np.ndarray:
    """ASCII digit at decimal place `place` of each index start, ..., start + count - 1,
    as runs of `place` equal digits."""
    first, last = start // place, (start + count - 1) // place
    runs = np.full(last - first + 1, place)
    runs[0] -= start - first * place
    runs[-1] -= (last + 1) * place - (start + count)
    return np.repeat((np.arange(first, last + 1) % 10 + 48).astype(np.uint8), runs)


def to_text(cells: np.ndarray) -> str:
    """trial_sim.trial_log_to_text of a cell column that check_trial_log passed."""
    width = len(str(max(len(cells) - 1, 0)))
    parts = []
    for start in range(0, len(cells), _CHUNK):
        chunk = cells[start:start + _CHUNK]
        rows = np.zeros((len(chunk), width + _RECORD_WIDTH), dtype=np.uint8)
        for k in range(width):  # column width - 1 - k holds the 10**k digit
            rows[:, width - 1 - k] = _index_digits(start, len(chunk), 10 ** k)
            if k:  # an index has no leading zeros
                rows[:max(0, 10 ** k - start), width - 1 - k] = 0
        rows[:, width:] = _RECORD_ITEMS.take(chunk).view(np.uint8).reshape(-1, _RECORD_WIDTH)
        parts.append(rows[rows != 0])
    text = np.concatenate(parts or [np.zeros(0, dtype=np.uint8)])
    del parts  # so that at most two copies of the text are alive
    return str(text, "ascii")


def _strip(seg: np.ndarray, begin: np.ndarray, end: np.ndarray) -> None:
    """Move each line's [begin, end) of seg in place past the _PAD bytes at its ends."""
    for pos, limit, step, offset in ((begin, end, 1, 0), (end, begin, -1, -1)):
        live = np.flatnonzero((pos != limit) & _PAD[seg[pos + offset]])
        while live.size:
            pos[live] += step
            live = live[pos[live] != limit[live]]
            live = live[_PAD[seg[pos[live] + offset]]]


def _parse_chunk(seg: np.ndarray, lines_before: int, last: int):
    """(cells, lines, last index) of the whole lines in seg (see
    trial_sim.parse_trial_log), whose first line is line lines_before + 1 of the log
    and must have an index above last."""
    end = np.flatnonzero(seg == 10)
    if seg[-1] != 10:
        end = np.append(end, len(seg))
    lines = len(end)
    begin = np.concatenate(([0], end[:-1] + 1))
    _strip(seg, begin, end)
    keep = begin < end
    head = np.flatnonzero(keep & (end - begin >= len(_HEADER)))
    for k, byte in enumerate(_HEADER):
        head = head[seg[begin[head] + k] == byte]
    keep[head] = False
    begin, end = begin[keep], end[keep]

    # The record is the tail of the line that matches a cell; the index is the
    # rest.  Packing runs past the start of short lines; a tail that does so
    # leaves no room for the index.
    packed = np.zeros(len(end), dtype=np.int32)
    last_byte = end - 1
    for k in range(max(_TAILS)):
        packed |= _SYMBOL[seg.take(last_byte - k, mode="clip")] << 3 * k
    cell = np.full(len(end), -1, dtype=np.int8)
    index_end = begin
    for length, (multiplier, slot_tail, slot_cell) in _TAILS.items():
        tail = packed & ((1 << 3 * length) - 1)
        slot = tail.view(np.uint32) * multiplier >> np.uint32(26)
        hit = slot_tail[slot] == tail
        cell = np.where(hit, slot_cell[slot], cell)
        index_end = np.where(hit, end - length, index_end)
    width = index_end - begin
    bad = width <= 0

    # Indices of up to 19 digits fit in uint64; wider ones are checked alone.
    value = np.zeros(len(end), dtype=np.uint64)
    last_digit = index_end - 1
    for k in range(min(int(width.max(initial=0)), 19)):
        has = width > k
        digit = seg.take(last_digit - k, mode="clip") - np.uint8(48)
        bad |= has & (digit > 9)
        value += (digit * has).astype(np.uint64) * np.uint64(10 ** k)
    for i in np.flatnonzero((width > 19) & ~bad):
        field = seg[begin[i]:index_end[i]].tobytes()
        bad[i] = not field.isdigit()
        value[i] = min(int(field), _INT64_MAX + 1) if not bad[i] else 0
    over = ~bad & (value > _INT64_MAX)

    def error(i: int, why: str) -> ValueError:
        lineno = lines_before + 1 + int(np.flatnonzero(keep)[i])
        line = seg[begin[i]:end[i]].tobytes().decode("utf-8", "backslashreplace")
        return ValueError(f"trial log line {lineno} {why}: {line!r}")

    first = int(np.argmax(bad | over)) if np.any(bad | over) else len(end)
    index = value[:first].astype(np.int64)
    late = np.flatnonzero(index <= np.concatenate(([last], index[:-1])))
    if late.size:
        i = int(late[0])
        raise error(i, f"is out of temporal order: index {index[i]} after "
                       f"{index[i - 1] if i else last}")
    if first < len(end) and over[first]:
        raise error(first, f"has an index above the int64 maximum {_INT64_MAX}")
    if first < len(end):
        raise error(first, "is not 'index,x,y,a,b' with an index of ASCII digits, "
                           "x, y in {0, 1} and a, b in {-1, 1, u}")
    return cell, lines, int(index[-1]) if index.size else last


def parse(text: str | bytes) -> np.ndarray:
    """trial_sim.parse_trial_log, whose docstring states the grammar."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    buf = np.frombuffer(data, dtype=np.uint8)
    cells, lines_before, last = [], 0, -1
    start = 0
    while start < len(buf):
        cut = data.find(b"\n", start + _CHUNK_BYTES)
        stop = len(buf) if cut < 0 else cut + 1
        chunk, lines, last = _parse_chunk(buf[start:stop], lines_before, last)
        cells.append(chunk)
        lines_before += lines
        start = stop
    return np.concatenate(cells) if cells else np.zeros(0, dtype=np.int8)
