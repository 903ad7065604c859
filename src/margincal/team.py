"""Block walks on every usable core: the parent and forked helpers claim a
walk's blocks from one queue until it is empty, so none waits for a slower
one, and the parent sums the blocks' rows in block order.

A walk is an object with ``n_blocks``, ``width``, ``run(i, row)`` and
``what``.  ``run(i, row)`` computes block i and writes all ``width`` entries
of its result row (it may also write its own output, such as a column slice
of a shared score array).  ``what`` names the walk in the MarginCalError
raised when a helper dies during it; ``train`` adds the epoch.  The result
of a walk is the sum of its rows from zero in block order, so it is bitwise
the same whichever process ran each block and however many there were.
"""
from __future__ import annotations

import contextlib
import mmap
import os
from typing import Optional

import numpy as np

from .errors import MarginCalError

#: a walk on a team of its own (``run_walk``: `forward`, `lower_bound_report`,
#: `evaluate`) forks helpers only from this many blocks (2,097,152 pixels).
#: A helper costs its fork, pinning and reaping, and an exit that grows with
#: the parent's memory.  `evaluate` at 64x64 px and K = 3, with the parent at
#: 150 MB resident on a 2-core x86-64 host (medians of 25 runs): 16 blocks
#: took 3.2-3.6 ms in one process and 7.0-7.9 ms with a helper, 50 blocks
#: 9.5-11.0 ms and 11.5-12.2 ms.
FORK_MIN_BLOCKS = 512

#: most tokens in a walk's queue: an empty pipe takes a write of PIPE_BUF (4,096)
#: bytes whole, so ``map`` never blocks.  Token t names blocks t, t + QUEUE_TOKENS, ...
QUEUE_TOKENS = 1024

#: the parent's ends of the pipes of every live team's helpers.  A new helper
#: closes them all: one that kept another team's go pipe open would keep that
#: team's helper from reading end of file, and its ``close`` waiting for ever.
_PARENT_FDS: set[int] = set()


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


def _claim(walk, rows: np.ndarray, done: np.ndarray, queue: int) -> None:
    """Claim tokens from ``queue`` until it is empty, running each token's
    blocks in order and marking each in ``done``.  A read of 4 bytes from a
    pipe is atomic, so every token is claimed once.  At a block that raises
    the process stops claiming; ``_fold`` recomputes every block not done."""
    with contextlib.suppress(BlockingIOError):  # the queue is empty
        while True:
            token = int.from_bytes(os.read(queue, 4), "little")
            for i in range(token, walk.n_blocks, QUEUE_TOKENS):
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
    """The parent and ``n_helpers`` forked helper processes, which claim a
    walk's blocks from the team's queue, a pipe whose read end does not
    block, until it is empty.

    ``make_walk(job)`` builds the walk for a job number, in the parent and in
    every helper, from what the helpers can see: what existed when they were
    forked, and shared memory (``shared_arrays``).  One anonymous shared
    mapping holds each block's result row and done flag, for walks of at most
    ``max_blocks`` blocks of at most ``width`` entries.  ``map(job)`` writes
    the walk's tokens into the queue, sends the job number on each helper's
    go pipe, claims blocks, waits for each helper's answer on its done pipe,
    reads the tokens a raising block left and folds the rows.  Each helper
    pins itself to the usable CPUs but the one the parent was on when it forked.
    A helper exits at the end of file of its go pipe: when the parent closes
    it, or dies.  A helper that has died, during a walk or before one, makes
    ``map`` raise MarginCalError naming the walk; ``close``, or leaving
    a ``with`` block on the team, reaps every helper.
    """

    def __init__(self, make_walk, n_helpers: int, max_blocks: int, width: int) -> None:
        self.make_walk = make_walk
        self.rows, self.done = shared_arrays((np.float64, (max_blocks, width)),
                                             (np.bool_, max_blocks))
        self.helpers: list[tuple[int, int, int]] = []  # (pid, go pipe, done pipe)
        self.queue = os.pipe()
        os.set_blocking(self.queue[0], False)
        try:
            cpu = _current_cpu() if n_helpers > 0 else None
            for _ in range(n_helpers):
                go_r, go_w = os.pipe()
                done_r, done_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for fd in (go_w, done_r, self.queue[1], *_PARENT_FDS):
                            os.close(fd)
                        _pin_away_from(cpu)
                        self._serve(go_r, done_w)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(go_r)
                os.close(done_w)
                self.helpers.append((pid, go_w, done_r))
                _PARENT_FDS.update((go_w, done_r))
            _PARENT_FDS.update(self.queue)  # after the forks: this team's helpers read it
        except BaseException:
            self.close()
            raise

    def _serve(self, go: int, done_pipe: int) -> None:
        """A helper's life: claiming blocks of one walk per job number read from ``go``."""
        while len(job := os.read(go, 4)) == 4:
            walk = self.make_walk(int.from_bytes(job, "little", signed=True))
            _claim(walk, self.rows[:, : walk.width], self.done, self.queue[0])
            os.write(done_pipe, b"\x01")

    def map(self, job: int = 0) -> np.ndarray:
        """Run the walk of ``job`` on the team; its rows' sum in block order."""
        walk = self.make_walk(job)
        rows, done = self.rows[: walk.n_blocks, : walk.width], self.done[: walk.n_blocks]
        done[:] = False
        os.write(self.queue[1], np.arange(min(walk.n_blocks, QUEUE_TOKENS), dtype="<u4"))
        message = job.to_bytes(4, "little", signed=True)
        for _, go, _ in self.helpers:
            with contextlib.suppress(BrokenPipeError):  # dead: reading its done pipe raises
                os.write(go, message)
        _claim(walk, rows, done, self.queue[0])
        answers = [os.read(done_pipe, 1) for _, _, done_pipe in self.helpers]
        with contextlib.suppress(BlockingIOError):  # left if every process stopped early
            os.read(self.queue[0], 4 * QUEUE_TOKENS)
        for (pid, _, _), answer in zip(self.helpers, answers):
            if answer != b"\x01":
                raise MarginCalError(f"block helper process {pid} exited during {walk.what}")
        return _fold(walk, rows, done)

    def close(self) -> None:
        """Close the helpers' pipes and reap them, then close the queue."""
        while self.helpers:
            pid, go, done_pipe = self.helpers.pop()
            _PARENT_FDS.difference_update((go, done_pipe))
            os.close(go)
            os.waitpid(pid, 0)
            os.close(done_pipe)
        _PARENT_FDS.difference_update(self.queue)
        for fd in self.queue:
            os.close(fd)
        self.queue = ()

    def __enter__(self) -> "_Team":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_walk(walk) -> np.ndarray:
    """The sum of ``walk``'s rows in block order, on a team of its own with
    one helper per extra usable CPU (at most one per block) from
    FORK_MIN_BLOCKS blocks on."""
    n_blocks = walk.n_blocks
    helpers = min(process_count(), n_blocks) - 1 if n_blocks >= FORK_MIN_BLOCKS else 0
    with _Team(lambda job: walk, helpers, n_blocks, walk.width) as team:
        return team.map()
