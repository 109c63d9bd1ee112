"""Map a function over contiguous chunks of a run, one chunk per CPU.

Rebalances, simulated paths and a CSV panel's rows all split into
contiguous chunks whose results do not depend on where the chunks start.
:func:`split` decides once per run how many chunks there are: one when the
run stays serial, one per CPU when it forks. :func:`fan_out` returns
``part(chunk)`` for each chunk in order: the calling process computes the
first, and each of the rest comes from a forked worker that sends its pickled
result back down a pipe of its own. This module is the package's only user
of processes and pipes.
"""

from __future__ import annotations

import os
import threading


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def split(items: range, min_chunk: int) -> list[range]:
    """Contiguous chunks of ``items``, one per lane, each of at least
    ``min_chunk`` items; a single chunk when the run stays serial.

    The run stays serial below two lanes' worth of items, where forking is
    unavailable, in a daemonic process (which may not have children) and
    where other threads run, since a thread holding a lock at fork time can
    deadlock the child. Below two lanes nothing is imported.
    """
    lanes = min(_cpus(), len(items) // min_chunk)
    if lanes < 2:
        return [items]
    import multiprocessing  # here, so that serial runs skip its import time

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return [items]
    edges = [len(items) * k // lanes for k in range(lanes + 1)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def _worker(writer, part, chunk) -> None:
    """Forked-process body: send back ``part(chunk)``."""
    writer.send(part(chunk))
    writer.close()


def fan_out(chunks: list[range], part) -> list:
    """``part(chunk)`` for each of ``chunks`` from :func:`split`, in order.

    This process computes the first chunk, every chunk whose worker could
    not be forked or died before sending all of its result, and the whole
    run when there is one chunk. ``part`` must give the same result in either
    process, and must never raise in a worker: whatever can fail runs in this
    process before the call or after it.
    """
    if len(chunks) < 2:
        return [part(chunks[0])]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, readers = [], []
    try:
        for chunk in chunks[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=_worker, args=(writer, part, chunk), daemon=True)
            try:
                proc.start()
                procs.append(proc)
            except OSError:  # no process to spare; the chunk is computed here
                pass
            writer.close()
        results = [part(chunks[0])]
        for reader, chunk in zip(readers, chunks[1:]):
            try:
                results.append(reader.recv())
            except (EOFError, OSError):  # no worker, or it died before sending it all
                results.append(part(chunk))
        return results
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            proc.join()
