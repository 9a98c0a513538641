"""One fork-shared block of typed arrays: the daemon's sharing mechanism.

Every counter the serving daemon reports for its whole process tree —
request counts and latency, fault-tolerance events, drift banks, the
span ring — lives in a :class:`SharedBlock`.  The parent creates each
block before it forks workers; a forked child inherits the mapping, so
any process can answer a scrape.  Each process writes only its own row
and readers sum or scan the rows, so no lock exists for a kill to
orphan.  Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import mmap
import struct

__all__ = ["SharedBlock"]


class SharedBlock:
    """Named typed arrays in one anonymous shared mapping, a row per writer.

    ``fields`` maps each array's name to ``(typecode, length)`` in
    :mod:`struct` typecodes (``"q"`` int64, ``"d"`` float64, ``"B"``
    bytes).  Each array is a zero-filled ``(rows, length)``
    :class:`memoryview` attribute of the block, indexed ``[row, slot]``
    (``numpy.asarray`` gives a writable matrix view of the same bytes).
    Create **before** forking: only processes forked after creation
    share the memory.  A process writes only row :attr:`row`, with
    plain stores, so a reader may see an update only partly applied.
    """

    row = 0  # this process's row: set once in a freshly forked worker

    def __init__(self, rows: int = 1, **fields: tuple[str, int]) -> None:
        layout = []
        size = 0
        for name, (code, length) in fields.items():
            nbytes = struct.calcsize(code) * length * rows
            layout.append((name, code, (rows, length), size, nbytes))
            size += -(-nbytes // 8) * 8  # keep every array 8-byte aligned
        raw = memoryview(mmap.mmap(-1, max(size, 1), flags=mmap.MAP_SHARED))
        for name, code, shape, start, nbytes in layout:
            setattr(self, name, raw[start:start + nbytes].cast(code, shape))
