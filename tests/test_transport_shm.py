"""The shared-memory ring's counters (``docs/wire-protocol.md`` §9.1).

``head`` and ``tail`` are the whole cross-process protocol, so these tests
pin what the peer process may observe of them: a counter moves in one
aligned store and never reads as going backwards from the other process,
and counters that cannot describe the ring fail loudly with
:class:`~repro.transport.base.TransportError` instead of copying the wrong
bytes.  A failed push must leave the writer closable.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.transport import shm
from repro.transport.base import TransportError

_SEQ = itertools.count()

#: stores 1..argv[2]-1 into ``head`` of the ring segment named argv[1]
_HEAD_WRITER = """
import sys
from repro.transport import shm
ring = shm._Ring(shm._attach(sys.argv[1]), create=False)
for value in range(1, int(sys.argv[2])):
    ring.head = value
ring.detach()
"""


@pytest.fixture()
def ring():
    name = f"ring-test-{os.getpid()}-{next(_SEQ)}"
    segment = shm._create(name, shm._RING_HEADER.size + 64)
    made = shm._Ring(segment, create=True, capacity=64)
    try:
        yield made
    finally:
        made.detach()
        shm._unlink(segment)


def test_counter_never_reads_backwards_from_another_process(ring):
    # A store that zeroes the field first (struct.pack_into) lets the
    # peer read 0 between its two writes; a producer that reads head as 0
    # sees more than a full ring in flight.
    src = Path(shm.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    writer = subprocess.Popen([sys.executable, "-c", _HEAD_WRITER,
                               ring._segment.name, "200000"], env=env)
    last, backwards, reads = 0, 0, 0
    while writer.poll() is None:
        value = ring.head
        backwards += value < last
        last = value
        reads += 1
    assert writer.returncode == 0
    assert ring.head == 199_999
    assert backwards == 0, f"{backwards} of {reads} reads went backwards"


def test_push_and_pull_reject_impossible_counters(ring):
    view = np.zeros(8, dtype=np.uint8)
    ring.head, ring.tail = 10, 5  # tail - head < 0
    with pytest.raises(TransportError, match="head=10 tail=5 capacity=64"):
        ring.push(view)
    with pytest.raises(TransportError, match="head=10 tail=5 capacity=64"):
        ring.pull(8)
    ring.head, ring.tail = 0, 65  # more than a full ring in flight
    with pytest.raises(TransportError, match="head=0 tail=65 capacity=64"):
        ring.push(view)
    with pytest.raises(TransportError, match="tail - head must lie"):
        ring.pull(8)
    # nothing was copied or published
    assert (ring.head, ring.tail) == (0, 65)


def test_full_and_empty_rings_are_consistent(ring):
    ring.head, ring.tail = 100, 164  # exactly full
    assert ring.push(np.ones(8, dtype=np.uint8)) == 0
    assert len(ring.pull(64)) == 64
    assert ring.pull(8) == b""  # exactly empty


def test_failed_push_leaves_the_writer_closable():
    name = f"ring-test-{os.getpid()}-{next(_SEQ)}"
    size = shm._RING_HEADER.size + 64
    out_ring = shm._Ring(shm._create(f"{name}.a", size), create=True,
                         capacity=64)
    in_ring = shm._Ring(shm._create(f"{name}.b", size), create=True,
                        capacity=64)
    link = shm._Link(out_ring, in_ring, owns_segments=True)
    writer = shm.RingWriter(link)
    writer.write(bytes(100))  # 64 bytes land, 36 wait in the buffer
    out_ring.head, out_ring.tail = 0, 1000  # a corrupted peer counter
    with pytest.raises(TransportError, match="head=0 tail=1000"):
        writer.write(bytes(10))
    # the buffer is not pinned by a stale export of the failed push
    writer._buffer += bytes(1)
    writer.close()
    assert link.closed
