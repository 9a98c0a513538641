"""The fork-shared block every daemon-wide counter is built on."""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro.obs.shared import SharedBlock


def _bump(block: SharedBlock, count: int) -> None:
    for _ in range(count):
        with block.lock:
            block.counts[0] += 1
            block.counts[2] += 3
            block.total[0] += 0.5


class TestSharedBlock:
    def test_fields_are_typed_zeroed_and_aligned(self):
        block = SharedBlock(flags=("B", 3), counts=("q", 3), total=("d", 1))
        assert block.flags.format == "B" and len(block.flags) == 3
        assert block.counts.tolist() == [0, 0, 0]
        assert block.total.tolist() == [0.0]
        block.counts[1] = -(2 ** 62)  # a full int64, after 3 odd bytes
        assert block.counts[1] == -(2 ** 62)
        view = np.frombuffer(block.counts, dtype=np.int64)
        view += 1  # numpy writes land in the same shared bytes
        assert block.counts.tolist() == [1, -(2 ** 62) + 1, 1]

    def test_forked_writers_under_the_lock_lose_nothing(self):
        block = SharedBlock(counts=("q", 3), total=("d", 1))
        workers = [
            multiprocessing.Process(target=_bump, args=(block, 2000))
            for _ in range(6)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        assert block.counts.tolist() == [12000, 0, 36000]
        assert block.total[0] == 6000.0
