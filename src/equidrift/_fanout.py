"""Fan a run of independent items out to forked worker processes.

The backtest's rebalances and the simulator's paths both split into
contiguous chunks whose results do not depend on where the chunks start, so
both run through :func:`fan_out`: one chunk per CPU, the first computed by the
calling process and each of the rest by a forked worker that sends its result
back down a pipe of its own.
"""

from __future__ import annotations

import os
import threading


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fan_out(items: range, min_chunk: int, here, worker, receive) -> None:
    """Process ``items`` in contiguous chunks, one per CPU, in order.

    Each chunk holds at least ``min_chunk`` items. ``here(chunk)`` computes a
    chunk in this process: the first, every chunk whose worker could not be
    forked or did not send all of its result, and all of ``items`` when the
    run stays serial. ``worker(writer, chunk)`` is a forked child's body and
    sends the chunk's result down ``writer``. ``receive(reader, chunk)``
    takes it in this process, and must leave its output untouched when the
    pipe raises ``EOFError`` (the worker sent nothing) or ``OSError`` (the
    worker died partway through its message). Workers must never raise:
    whatever can fail runs in this process before the call.

    Forking is skipped where it is unavailable, in a daemonic process (which
    may not have children) and where other threads run, since a thread
    holding a lock at fork time can deadlock the child. Below two lanes
    nothing is imported.
    """
    lanes = min(_cpus(), len(items) // min_chunk)
    if lanes < 2:
        here(items)
        return
    import multiprocessing  # here, so that serial runs skip its import time

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        here(items)
        return
    ctx = multiprocessing.get_context("fork")
    edges = [len(items) * k // lanes for k in range(lanes + 1)]
    chunks = [items[a:b] for a, b in zip(edges, edges[1:])]
    procs, readers = [], []
    try:
        for chunk in chunks[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=worker, args=(writer, chunk), daemon=True)
            try:
                proc.start()
                procs.append(proc)
            except OSError:  # no process to spare; the chunk is computed here
                pass
            writer.close()
        here(chunks[0])
        for reader, chunk in zip(readers, chunks[1:]):
            try:
                receive(reader, chunk)
            except (EOFError, OSError):  # no worker, or it died before sending it all
                here(chunk)
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            proc.join()
