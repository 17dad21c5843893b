"""Memory of the state path: aggregator state is int32, a state pull
sums the shards' packed replies into one vector, and a checkpoint packs
from the live counts without copying them first.

tracemalloc sees numpy's array buffers, so the traced peak of a call is
what it allocated at its worst moment.  The state is a D = 2^14 expander
sketch aggregate split across two shards; a layout-sized int32 array
alone is 4 bytes per cell.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.heavy_hitters import PrivateExpanderSketch
from repro.protocol.binary import fold_states, pack_state
from repro.server.framing import decode_frame, encode_state_frame
from repro.server.service import state_reply
from repro.server.window import WindowedAggregator


def _traced_peak(call):
    """``(call(), bytes its allocations peaked at)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def shards():
    """Params, two shards' report batches of 4000 reports each, their
    aggregators and the aggregators' sum."""
    params = PrivateExpanderSketch(1 << 14, 4.0).public_params(
        8000, rng=np.random.default_rng(3))
    gen = np.random.default_rng(4)
    encoder = params.make_encoder()
    batches = [encoder.encode_batch(
        gen.integers(0, params.domain_size, size=4000), gen,
        first_user_index=4000 * shard) for shard in range(2)]
    aggregators = [params.make_aggregator().absorb_batch(batch)
                   for batch in batches]
    return params, batches, aggregators, aggregators[0].merge(aggregators[1])


def test_state_pull_sums_into_one_int32_vector(shards):
    """The router's pull: two kind-2 ``state`` replies read with their
    counts left in the wire columns, the first loaded into an int32
    vector and the second added into it from its column.  That vector is
    the only layout-sized buffer (measured: 1.0002 x 4 B/cell; decoding
    both replies to int32 vectors first read 2.0003)."""
    params, _, aggregators, expected = shards
    cells = params.layout.size
    frames = [encode_state_frame(state_reply(aggregator, [0]))[4:]
              for aggregator in aggregators]
    merged, peak = _traced_peak(lambda: fold_states(
        params, [decode_frame(frame, arrays=False)["state"]
                 for frame in frames]))
    assert merged.counts.dtype == np.int32
    assert np.array_equal(merged.counts, expected.counts)
    assert merged.num_reports == expected.num_reports == 8000
    assert peak < 1.25 * 4 * cells, peak / cells

    # replies already decoded to arrays still sum in place
    states = [decode_frame(frame)["state"] for frame in frames]
    merged, peak = _traced_peak(lambda: fold_states(params, states))
    assert np.array_equal(merged.counts, expected.counts)
    assert peak < 0.25 * 4 * cells, peak / cells


def test_checkpoint_body_packs_from_the_live_counts(shards):
    """A checkpoint body (capture plus ``pack_state``) of one epoch
    allocates less than one int32 vector: the capture holds the live
    counts, and the packed body narrows them to their value range."""
    params, batches, aggregators, _ = shards
    cells = params.layout.size
    windowed = WindowedAggregator(params)
    windowed.absorb_batch(batches[0], 0)
    capture = windowed.capture()
    assert capture["epochs"][0]["state"]["counts"] is \
        windowed.merged().counts
    body, peak = _traced_peak(lambda: pack_state(windowed.capture()))
    assert body == pack_state(windowed.snapshot())
    assert peak < 4 * cells, peak / cells


def test_state_frame_is_written_in_one_buffer():
    """A kind-2 frame is the packed container itself, its length prefix
    written into head room: encoding one allocates the frame once, not a
    container and then a prefixed copy of it."""
    counts = np.random.default_rng(5).integers(-100, 100, size=1 << 20,
                                               dtype=np.int32)
    message = {"type": "state",
               "state": {"num_reports": 0, "state": {"counts": counts}}}
    frame, peak = _traced_peak(lambda: encode_state_frame(message))
    assert decode_frame(frame[4:])["state"]["state"]["counts"].dtype == \
        np.int32
    assert len(frame) > counts.size
    assert peak < 1.25 * len(frame), peak / len(frame)
