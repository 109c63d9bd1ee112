"""Map a function over contiguous chunks of a run, one chunk per CPU.

The backtest's rebalances and the simulator's paths both split into
contiguous chunks whose results do not depend on where the chunks start.
:func:`split` decides once per run how many chunks there are: one when the
run stays serial, one per CPU when it forks. :func:`fan_out` returns
``part(chunk)`` for each chunk in order: the calling process computes the
first, and each of the rest comes from a forked worker that sends its pickled
result back down a pipe of its own. A ``part`` that writes into arrays
instead of returning its result writes into arrays from :func:`empty`, which
are shared with the workers exactly when the chunks are run by them, and
:func:`resident` maps such an array into this process once they are done. This
module is the package's only user of processes, pipes and shared memory.
"""

from __future__ import annotations

import math
import mmap
import os
import threading

import numpy as np


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


def empty(shape: tuple, chunks: list[range]) -> np.ndarray:
    """An uninitialised float array that every process computing one of
    ``chunks`` can write into: private when there is one chunk, else one
    shared anonymous mapping.

    Shared pages get no transparent huge pages, so a serial run never allocates
    them, though a serial draw of 20,000 paths x 252 steps x 5 assets took 0.88 s
    on either and its price build 0.59-0.60 s on them, 0.61-0.66 s on private.
    """
    if len(chunks) < 2:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def resident(array: np.ndarray) -> np.ndarray:
    """``array`` from :func:`empty` with every page mapped in this process, whose
    RSS counts a page that a worker wrote only once it maps it, so that its peak
    RSS does not hang on whether a run forked. Reading one value a page took 8-9
    ms per 100 MB on a 2-CPU host; populating the mapping before the fork made
    the price build's two lanes barely beat one.
    """
    np.count_nonzero(array.reshape(-1)[:: mmap.PAGESIZE // array.itemsize])
    return array


def _worker(writer, part, chunk) -> None:
    """Forked-process body: send back ``part(chunk)``."""
    writer.send(part(chunk))
    writer.close()


def fan_out(chunks: list[range], part) -> list:
    """``part(chunk)`` for each of ``chunks`` from :func:`split`, in order.

    This process computes the first chunk, every chunk whose worker could
    not be forked or died before sending all of its result, and the whole
    run when there is one chunk. ``part`` must give the same result, and
    write the same values into arrays from :func:`empty`, in either process,
    and must never raise in a worker: whatever can fail runs in this process
    before the call or after it.
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
