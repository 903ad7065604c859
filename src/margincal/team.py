"""Block walks on every usable core: the parent and forked helpers each run a
fixed share of a walk's blocks, and the parent sums the blocks' rows in block
order.

A walk is an object with ``n_blocks``, ``width``, ``run(i, row)``, ``what``
and ``error``.  ``run(i, row)`` computes block i and writes all ``width``
entries of its result row (it may also write its own output, such as a
column slice of a shared score array).  ``what`` names the walk in the
message of ``error``, raised when a helper dies during it.  The result of a
walk is the sum of its rows from zero in block order, so it is bitwise the
same whichever process ran each block and however many there were.
"""
from __future__ import annotations

import contextlib
import mmap
import os
from typing import Optional

import numpy as np

#: a walk on a team of its own (``run_walk``: `forward`, `score_counts`,
#: `lower_bound_report`, `evaluate`) forks helpers only from this many blocks
#: (2,097,152 pixels).  Forking, pinning and reaping a helper cost about 2 ms
#: plus the helper's exit, which grows with the parent's memory (5-9 ms at
#: 300 MB).  Measured at K = 3, `forward` and `lower_bound_report` repay that
#: from 64 and 256 blocks, `score_counts` without margin-offsets only from
#: about 512; CHANGES.md holds the timings.
FORK_MIN_BLOCKS = 512


def shared_arrays(*specs) -> list[np.ndarray]:
    """Zero-filled arrays of the given (dtype, shape) over one anonymous
    shared mapping, each 64-byte aligned; forked helpers write them and the
    parent reads what they wrote."""
    sizes = [-(-int(np.prod(shape)) * np.dtype(dtype).itemsize // 64) * 64
             for dtype, shape in specs]
    mem = mmap.mmap(-1, max(sum(sizes), 1))  # kept alive by the arrays over it
    arrays, pos = [], 0
    for (dtype, shape), size in zip(specs, sizes):
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(mem, dtype, count, pos).reshape(shape))
        pos += size
    return arrays


def process_count() -> int:
    """How many processes a walk may use: one per usable CPU."""
    if not hasattr(os, "sched_getaffinity"):  # no affinity to read: one process
        return 1
    return len(os.sched_getaffinity(0))


def _current_cpu() -> Optional[int]:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _pin_away_from(cpu: Optional[int]) -> None:
    """Keep this process off ``cpu``: where the scheduler does not balance
    load (a cpuset with ``sched_load_balance`` 0), a forked helper otherwise
    stays on its parent's CPU and the two take turns.  If pinning fails, the
    process carries on unpinned."""
    if cpu is None:
        return
    try:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except (AttributeError, OSError, ValueError):
        pass


def _run_share(walk, rows: np.ndarray, done: np.ndarray, first: int, stride: int) -> None:
    """Run blocks ``first, first + stride, ...`` in order, marking each in
    ``done``.  At a block that raises the share ends; ``_fold`` recomputes
    that block and the rest of the share."""
    for i in range(first, walk.n_blocks, stride):
        try:
            walk.run(i, rows[i])
        except Exception:  # any error: _fold re-raises it from the first failing block
            return
        done[i] = True


def _fold(walk, rows: np.ndarray, done: np.ndarray) -> np.ndarray:
    """The sum of the rows from zero in block order.  A block not done is run
    here, so the first failing block raises exactly as a run of every block
    in order would."""
    total = np.zeros(walk.width)
    for i, row in enumerate(rows):
        if not done[i]:
            walk.run(i, row)
        total += row
    return total


class _Team:
    """The parent and ``n_helpers`` forked helper processes, each running a
    fixed share of a walk's blocks: with P processes, share h is blocks h,
    h + P, ...; the parent is share 0.

    ``make_walk(job)`` builds the walk for a job number, in the parent and in
    every helper, from what the helpers can see: what existed when they were
    forked, and shared memory (``shared_arrays``).  One anonymous shared
    mapping holds each block's result row and done flag, for walks of at most
    ``max_blocks`` blocks of at most ``width`` entries.  ``map(job)`` sends
    the job number on each helper's go pipe, runs share 0, waits for each
    helper's answer on its done pipe and folds the rows.  Each helper pins
    itself to the usable CPUs but the one the parent was on when it forked.
    A helper exits at the end of file of its go pipe: when the parent closes
    it, or dies.  A helper that has died, during a walk or before one, makes
    ``map`` raise the walk's ``error`` naming the walk; ``close``, or leaving
    a ``with`` block on the team, reaps every helper.
    """

    def __init__(self, make_walk, n_helpers: int, max_blocks: int, width: int) -> None:
        self.make_walk = make_walk
        self.rows, self.done = shared_arrays((np.float64, (max_blocks, width)),
                                             (np.bool_, max_blocks))
        self.helpers: list[tuple[int, int, int]] = []  # (pid, go pipe, done pipe)
        try:
            cpu = _current_cpu() if n_helpers > 0 else None
            for share in range(1, n_helpers + 1):
                go_r, go_w = os.pipe()
                done_r, done_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for fd in (go_w, done_r, *(fd for _, *fds in self.helpers for fd in fds)):
                            os.close(fd)
                        _pin_away_from(cpu)
                        self._serve(go_r, done_w, share, n_helpers + 1)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(go_r)
                os.close(done_w)
                self.helpers.append((pid, go_w, done_r))
        except BaseException:
            self.close()
            raise

    def _serve(self, go: int, done_pipe: int, share: int, stride: int) -> None:
        """A helper's life: its share of one walk per job number read from ``go``."""
        while len(job := os.read(go, 4)) == 4:
            walk = self.make_walk(int.from_bytes(job, "little"))
            _run_share(walk, self.rows[:, : walk.width], self.done, share, stride)
            os.write(done_pipe, b"\x01")

    def map(self, job: int = 0) -> np.ndarray:
        """Run the walk of ``job`` on the team; its rows' sum in block order."""
        walk = self.make_walk(job)
        rows, done = self.rows[: walk.n_blocks, : walk.width], self.done[: walk.n_blocks]
        done[:] = False
        message = job.to_bytes(4, "little")
        for _, go, _ in self.helpers:
            with contextlib.suppress(BrokenPipeError):  # dead: reading its done pipe raises
                os.write(go, message)
        _run_share(walk, rows, done, 0, len(self.helpers) + 1)
        for pid, _, done_pipe in self.helpers:
            if os.read(done_pipe, 1) != b"\x01":
                raise walk.error(f"block helper process {pid} exited during {walk.what}")
        return _fold(walk, rows, done)

    def close(self) -> None:
        """Close the helpers' pipes and reap them."""
        while self.helpers:
            pid, go, done_pipe = self.helpers.pop()
            os.close(go)
            os.waitpid(pid, 0)
            os.close(done_pipe)

    def __enter__(self) -> "_Team":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def helpers_for(n_blocks: int) -> int:
    """How many helpers a walk of ``n_blocks`` blocks forks: one per extra
    usable CPU (at most one per block) from FORK_MIN_BLOCKS blocks on."""
    return min(process_count(), n_blocks) - 1 if n_blocks >= FORK_MIN_BLOCKS else 0


def run_walk(walk) -> np.ndarray:
    """The sum of ``walk``'s rows in block order, on a team of its own with
    ``helpers_for(walk.n_blocks)`` helpers."""
    with _Team(lambda job: walk, helpers_for(walk.n_blocks), walk.n_blocks, walk.width) as team:
        return team.map()
