"""One fork-shared block of typed arrays: the daemon's sharing mechanism.

Every counter the serving daemon reports for its whole process tree —
request counts and latency, fault-tolerance events, drift banks, the
span ring — lives in a :class:`SharedBlock`.  The parent creates each
block before it forks workers; a forked child inherits the mapping, so
every process reads and writes the same memory and any of them can
answer a scrape.  Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import mmap
import multiprocessing
import struct

__all__ = ["SharedBlock"]


class SharedBlock:
    """Named typed arrays in one anonymous shared mapping, one lock.

    ``fields`` maps each array's name to ``(typecode, length)`` in
    :mod:`struct` typecodes (``"q"`` int64, ``"d"`` float64, ``"B"``
    bytes).  Each array is a zero-filled 1-D :class:`memoryview`
    attribute of the block (wrap it with ``numpy.frombuffer`` for a
    writable vector view of the same bytes); :attr:`lock` guards them
    all.  Create **before** forking: only processes forked after
    creation share the memory.  Hold :attr:`lock` only for slot updates
    and snapshot copies — never around allocation, encoding or I/O —
    because every process in the tree contends for it.
    """

    def __init__(self, **fields: tuple[str, int]) -> None:
        layout = []
        size = 0
        for name, (code, length) in fields.items():
            nbytes = struct.calcsize(code) * length
            layout.append((name, code, size, nbytes))
            size += -(-nbytes // 8) * 8  # keep every array 8-byte aligned
        raw = memoryview(mmap.mmap(-1, max(size, 1), flags=mmap.MAP_SHARED))
        for name, code, start, nbytes in layout:
            setattr(self, name, raw[start:start + nbytes].cast(code))
        self.lock = multiprocessing.Lock()
