"""Fork pool for ``--jobs``: a call's trials in contiguous blocks, one per process.

Each call splits the trials into one contiguous block per process, and the
caller is one of those processes: it runs the first block itself while
the other blocks run in forked workers, each joined to it by one plain
pipe. No thread runs in the caller, so its own block competes with nothing
for the GIL. A worker sends back its block's list in one message, so a
call makes one pipe round trip per worker. The processes are capped at the
CPU count; the workers are forked (the ``fork`` start method, so not on
Windows) on the first parallel call and kept for the life of the process,
and being forked then, they do not see module functions monkeypatched
later.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from typing import Callable, TypeVar

from .statevector import as_int

T = TypeVar("T")


def _serve(conn: Connection, parent_ends: list[Connection]) -> None:
    """A pool worker's loop: run each ``(work, block)`` that arrives, send back its rows.

    It closes the parent's ends of every pipe it inherited, so that when the
    caller dies nothing else holds them open and ``recv`` ends in EOF. It
    ignores SIGINT: a Ctrl-C reaches the caller, which stops the workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    while True:
        try:
            work, block = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, work(block))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the caller has gone
            return


class _Pool:
    """Forked workers, each joined to the caller by one pipe; the caller runs block 0."""

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context("fork")
        inherited = [end for _, pool in _pools.values() for end in pool.conns]
        self.conns: list[Connection] = []
        self.procs: list[multiprocessing.process.BaseProcess] = []
        try:
            for _ in range(workers - 1):
                parent_end, child_end = context.Pipe()
                self.conns.append(parent_end)
                proc = context.Process(
                    target=_serve, args=(child_end, inherited + self.conns), daemon=True
                )
                proc.start()
                child_end.close()
                self.procs.append(proc)
        except BaseException:
            self.shutdown(kill=True)
            raise

    def map(self, work: Callable[[range], list[T]], blocks: list[range]) -> list[list[T]]:
        """``work`` over ``blocks``, one per process: the lists in block order.

        Sends blocks 1..k to the workers first, then runs block 0 here, then
        reads the workers' lists. An exception a worker's block raised is
        raised here; a worker gone raises ``BrokenProcessPool``.
        """
        conns = self.conns[:len(blocks) - 1]
        try:
            for conn, block in zip(conns, blocks[1:]):
                conn.send((work, block))
        except OSError as exc:
            raise BrokenProcessPool("a pool worker has gone") from exc
        results = [work(blocks[0])]
        for conn in conns:
            try:
                ok, value = conn.recv()
            except (EOFError, OSError) as exc:
                raise BrokenProcessPool("a pool worker has gone") from exc
            if not ok:
                raise value
            results.append(value)
        return results

    def shutdown(self, kill: bool = False) -> None:
        """Close the pipes and join the workers, which then read EOF; ``kill`` stops them first."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if kill:
                proc.terminate()
            proc.join()


# Worker count and pool that per_trial keeps for the life of each process,
# keyed by the pid that created it. A forked child finds its parent's pool
# under another pid and leaves it alone: its pipes lead to the parent's
# workers, whose replies the parent reads.
_pools: dict[int, tuple[int, _Pool]] = {}


def per_trial(work: Callable[[range], list[T]], trials: int, jobs: int) -> list[T]:
    """``work`` over contiguous blocks of ``range(trials)``; its lists joined in trial order.

    ``work(block)`` runs a ``range`` of consecutive trial numbers. One block
    holds every trial unless ``jobs`` > 1 spreads them over
    ``workers = min(jobs, os.cpu_count())`` processes, one block of
    ceil(trials / workers) trials each. The caller is one of them: it sends
    blocks 1..k down one pipe to each of ``workers - 1`` forked processes,
    runs block 0 itself and then reads the workers' lists. No thread runs in
    the caller, so its block does not wait on the GIL.

    The workers are forked on first use and kept for the process: later
    calls with the same worker count reuse them, another count replaces
    them, and a pool inherited from a parent process is never used. They
    therefore run ``work`` as the module stood when they were forked, not
    under later monkeypatches. Any exception inside a call, a worker's
    (raised here with its type and message), the caller's own or a
    ``KeyboardInterrupt``, stops the workers and drops the pool, so no later
    call reads a stale reply. A worker gone raises ``BrokenProcessPool``.
    """
    jobs = as_int("jobs", jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    numbers = range(trials)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or trials == 1:
        return work(numbers)
    # One block per process: trials cost about the same, so a further block
    # would only add a round trip.
    size = -(-trials // workers)
    blocks = [numbers[i:i + size] for i in range(0, trials, size)]
    pid = os.getpid()
    cached = _pools.get(pid)
    if cached is None or cached[0] != workers:
        if cached is not None:
            del _pools[pid]
            cached[1].shutdown()
        cached = _pools[pid] = (workers, _Pool(workers))
    try:
        return [result for block in cached[1].map(work, blocks) for result in block]
    except BaseException:
        del _pools[pid]
        cached[1].shutdown(kill=True)
        raise
