"""Map a function over contiguous chunks of a run, one chunk per CPU.

Rebalances, simulated paths and a CSV panel's rows all split into
contiguous chunks whose results do not depend on where the chunks start.
:func:`split` decides once per run how many chunks there are, and
:func:`fan_out` returns ``part(chunk)`` for each chunk in order: the calling
process computes the first, and each of the rest comes from an ``os.fork``
child that pickles it down a pipe of its own. The fork site owns the child's
exit, so a child never returns into its caller's stack. This module is the
package's only user of processes and pipes.
"""

import contextlib
import os
import pickle
import signal
import sys
import threading


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def split(items: range, min_chunk: int) -> list[range]:
    """Contiguous chunks of ``items``, one per lane, each of at least
    ``min_chunk`` items; a single chunk when the run stays serial.

    The run stays serial below two lanes' worth of items or of CPUs (an OS
    without ``fork`` reports one CPU here), and where other threads run,
    since a thread holding a lock at fork time can deadlock the child.
    """
    lanes = min(_cpus(), len(items) // min_chunk)
    if lanes < 2 or threading.active_count() > 1:
        return [items]
    edges = [len(items) * k // lanes for k in range(lanes + 1)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def _worker(fd: int, part, chunk) -> None:
    """Forked-process body: pickle ``part(chunk)`` onto the pipe ``fd``."""
    with open(fd, "wb") as pipe:
        pickle.dump(part(chunk), pipe, pickle.HIGHEST_PROTOCOL)


def fan_out(chunks: list[range], part) -> list:
    """``part(chunk)`` for each of ``chunks`` from :func:`split`, in order.

    This process computes the first chunk, every chunk whose child could not
    be forked or died before sending all of its result, and the whole run
    when there is one chunk. ``part`` must give the same result in either
    process, and must never raise in a child: whatever can fail runs in this
    process before the call or after it.
    """
    pids, readers = [], []
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with contextlib.suppress(AttributeError, ValueError):  # no stream, or closed
                sys.stdout.flush()  # the child starts with empty buffers: nothing leaves twice
                sys.stderr.flush()
            try:
                pid = os.fork()
            except OSError:  # no process to spare; the empty pipe says so
                pid = None
            if pid == 0:
                try:
                    _worker(write_end, part, chunk)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            if pid:
                pids.append(pid)
        results = [part(chunks[0])]
        for reader, chunk in zip(readers, chunks[1:]):
            try:
                results.append(pickle.load(reader))
            except (EOFError, pickle.UnpicklingError):  # no child, or it died before sending it all
                results.append(part(chunk))
        return results
    finally:  # no child outlives the call, whether it returns or raises
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
