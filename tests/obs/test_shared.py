"""The fork-shared block every daemon-wide counter is built on."""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro.obs.shared import SharedBlock


def _bump(block: SharedBlock, row: int, count: int) -> None:
    SharedBlock.row = row  # what the daemon does in a forked worker
    for _ in range(count):
        block.counts[SharedBlock.row, 0] += 1
        block.counts[SharedBlock.row, 2] += 3
        block.total[SharedBlock.row, 0] += 0.5


class TestSharedBlock:
    def test_fields_are_typed_zeroed_and_aligned(self):
        block = SharedBlock(flags=("B", 3), counts=("q", 3), total=("d", 1))
        assert block.flags.format == "B" and block.flags.shape == (1, 3)
        assert block.counts.tolist() == [[0, 0, 0]]
        assert block.total.tolist() == [[0.0]]
        block.counts[0, 1] = -(2 ** 62)  # a full int64, after 3 odd bytes
        assert block.counts[0, 1] == -(2 ** 62)
        view = np.asarray(block.counts)
        view += 1  # numpy writes land in the same shared bytes
        assert block.counts.tolist() == [[1, -(2 ** 62) + 1, 1]]

    def test_forked_writers_on_their_own_rows_lose_nothing(self):
        block = SharedBlock(7, counts=("q", 3), total=("d", 1))
        assert block.counts.shape == (7, 3) and block.total.shape == (7, 1)
        workers = [
            multiprocessing.Process(target=_bump, args=(block, row, 2000))
            for row in range(1, 7)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        assert SharedBlock.row == 0  # the children's rows stayed theirs
        counts = block.counts.tolist()
        assert counts[0] == [0, 0, 0]
        assert counts[1:] == [[2000, 0, 6000]] * 6
        assert sum(total for (total,) in block.total.tolist()) == 6000.0
