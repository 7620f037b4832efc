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
later. Every forked child, a worker too, closes its copies of the caller's
pipe ends and starts with no workers, so the caller's death ends them all.
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

# This process's workers and its ends of their pipes, in the same order.
_procs: list[multiprocessing.process.BaseProcess] = []
_conns: list[Connection] = []


def _forget() -> None:
    """Close this process's ends of its workers' pipes and forget them; every fork runs it."""
    # multiprocessing's own table too: a child's exit handler would terminate them.
    multiprocessing.process._children.difference_update(_procs)
    for conn in _conns:
        conn.close()
    _conns.clear()
    _procs.clear()


os.register_at_fork(after_in_child=_forget)


def _serve(conn: Connection) -> None:
    """A pool worker's loop: run each ``(work, block)`` that arrives, send back its rows.

    It ignores SIGINT: a Ctrl-C reaches the caller, which stops the workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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


def _start(workers: int) -> None:
    """Fork ``workers - 1`` workers, each joined to the caller by one pipe."""
    context = multiprocessing.get_context("fork")
    try:
        for _ in range(workers - 1):
            parent_end, child_end = context.Pipe()
            _conns.append(parent_end)
            proc = context.Process(target=_serve, args=(child_end,), daemon=True)
            proc.start()
            child_end.close()
            _procs.append(proc)
    except BaseException:
        _stop(kill=True)
        raise


def _map(work: Callable[[range], list[T]], blocks: list[range]) -> list[list[T]]:
    """``work`` over ``blocks``, one per process: the lists in block order.

    Sends blocks 1..k to the workers first, then runs block 0 here, then
    reads the workers' lists. An exception a worker's block raised is
    raised here; a worker gone raises ``BrokenProcessPool``.
    """
    conns = _conns[:len(blocks) - 1]
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


def _stop(kill: bool = False) -> None:
    """Close the pipes and join the workers, which then read EOF; ``kill`` stops them first."""
    procs = _procs[:]
    _forget()
    for proc in procs:
        if kill:
            proc.terminate()
        proc.join()


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
    them, and a forked child starts with none and closes its copies of the
    parent's pipes. They therefore run ``work`` as the module stood when
    they were forked, not under later monkeypatches. Any exception inside a
    call, a worker's (raised here with its type and message), the caller's
    own or a ``KeyboardInterrupt``, stops the workers and drops them, so no
    later call reads a stale reply. A worker gone raises ``BrokenProcessPool``.
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
    if len(_procs) != workers - 1:
        _stop()
        _start(workers)
    try:
        return [result for block in _map(work, blocks) for result in block]
    except BaseException:
        _stop(kill=True)
        raise
