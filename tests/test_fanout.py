"""The fork map both engines fan out through.

``fan_out(items, min_chunk, part)`` returns ``part(chunk)`` for contiguous
chunks of ``items``, in order. The lane count is pinned, so runs split
whatever the host has, and ``part`` reports the process that computed it.
"""

import errno
import multiprocessing
import os
import struct
import threading
import time

import pytest

from equidrift import _fanout
from equidrift._fanout import fan_out

ITEMS = range(10, 40)

#: The chunks of ``ITEMS`` at each lane count, with a minimum chunk of 7.
CHUNKS = {
    1: [range(10, 40)],
    2: [range(10, 25), range(25, 40)],
    3: [range(10, 20), range(20, 30), range(30, 40)],
}


def where(chunk):
    """The chunk and the id of the process that computed it."""
    return chunk, os.getpid()


@pytest.fixture
def spied():
    """A ``part`` that records the chunks this process computes, and the
    record."""
    calls = []

    def part(chunk):
        calls.append(chunk)
        return where(chunk)

    return part, calls


@pytest.mark.parametrize("lanes", sorted(CHUNKS))
def test_results_come_back_in_chunk_order(pin_lanes, spied, lanes):
    part, calls = spied
    pin_lanes(lanes)
    results = fan_out(ITEMS, 7, part)
    assert [chunk for chunk, _ in results] == CHUNKS[lanes]
    pids = [pid for _, pid in results]
    # this process computes only the first chunk; a worker of its own each of the rest
    assert calls == CHUNKS[lanes][:1]
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:] and len(set(pids)) == lanes


@pytest.mark.parametrize("n, lanes", [(13, 1), (14, 2), (20, 2), (21, 3)])
def test_each_chunk_holds_at_least_the_minimum(pin_lanes, n, lanes):
    pin_lanes(3)
    results = fan_out(range(n), 7, where)
    assert len(results) == lanes
    assert [i for chunk, _ in results for i in chunk] == list(range(n))
    assert min(len(chunk) for chunk, _ in results) >= 7


def dies_at_once(writer, part, chunk):
    os._exit(1)


def dies_mid_message(writer, part, chunk):
    # a length header, then only the first 8 of the bytes it announces
    os.write(writer.fileno(), struct.pack("!i", 64) + bytes(8))
    os._exit(1)


def no_fork(process_obj):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("worker", [dies_at_once, dies_mid_message])
def test_dead_worker_is_computed_here(monkeypatch, pin_lanes, spied, lanes, worker):
    part, calls = spied
    monkeypatch.setattr(_fanout, "_worker", worker)
    pin_lanes(lanes)
    results = fan_out(ITEMS, 7, part)
    assert results == [(chunk, os.getpid()) for chunk in CHUNKS[lanes]]
    assert calls == CHUNKS[lanes]


@pytest.mark.parametrize("lanes", [2, 3])
def test_failed_fork_is_computed_here(monkeypatch, pin_lanes, spied, lanes):
    part, calls = spied
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "_Popen", staticmethod(no_fork))
    pin_lanes(lanes)
    results = fan_out(ITEMS, 7, part)
    assert results == [(chunk, os.getpid()) for chunk in CHUNKS[lanes]]
    assert calls == CHUNKS[lanes]


def test_serial_while_other_threads_run(pin_lanes, spied):
    part, calls = spied
    pin_lanes(3)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        results = fan_out(ITEMS, 7, part)
    finally:
        release.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    assert results == [(ITEMS, os.getpid())]
    assert calls == [ITEMS]


def test_error_here_kills_the_workers(pin_lanes):
    # the workers would run for a minute; the caller's error must not wait for them
    caller = os.getpid()

    def part(chunk):
        if os.getpid() == caller:
            raise ValueError("first chunk")
        time.sleep(60.0)

    pin_lanes(3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="first chunk"):
        fan_out(ITEMS, 7, part)
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []
