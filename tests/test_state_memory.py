"""Memory of the state path: aggregator state is int32, and no step of a
state pull or a checkpoint capture makes a layout-sized int64 array.

tracemalloc sees numpy's array buffers, so the traced peak of a call is
what it allocated at its worst moment.  The state is a D = 2^14 expander
sketch aggregate split across two shards; a layout-sized int64 array
alone is 8 bytes per cell.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.router import sum_pulled_states
from repro.core.heavy_hitters import PrivateExpanderSketch
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


def test_state_pull_decodes_and_sums_at_int32(shards):
    """The router's pull: two kind-2 ``state`` replies decoded to int32
    vectors and summed in place.  The two decoded vectors are the only
    layout-sized buffers: each becomes its aggregator's ``counts`` as it
    loads, with no empty vector made first."""
    params, _, aggregators, expected = shards
    cells = params.layout.size
    frames = [encode_state_frame(state_reply(aggregator, [0]))[4:]
              for aggregator in aggregators]
    merged, peak = _traced_peak(lambda: sum_pulled_states(
        params, [decode_frame(frame) for frame in frames]))
    assert merged.counts.dtype == np.int32
    assert np.array_equal(merged.counts, expected.counts)
    assert merged.num_reports == expected.num_reports == 8000
    assert peak < 2.25 * 4 * cells, peak / cells

    replies = [decode_frame(frame) for frame in frames]
    merged, peak = _traced_peak(lambda: sum_pulled_states(params, replies))
    assert np.array_equal(merged.counts, expected.counts)
    # in place: no layout-sized buffer at all, int64 or empty
    assert peak < 0.25 * 4 * cells, peak / cells


def test_capture_copies_one_int32_vector(shards):
    """A checkpoint capture of one epoch is one int32 copy of the state."""
    params, batches, aggregators, _ = shards
    cells = params.layout.size
    windowed = WindowedAggregator(params)
    windowed.absorb_batch(batches[0], 0)
    capture, peak = _traced_peak(windowed.capture)
    counts = capture["epochs"][0]["state"]["counts"]
    assert counts.dtype == np.int32
    assert np.array_equal(counts, aggregators[0].counts)
    assert 4 * cells <= peak < 1.25 * 4 * cells, peak / cells
