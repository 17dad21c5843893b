"""The message table against the code that serves it and the spec.

:data:`repro.server.framing.MESSAGES` is the one declaration of the
service vocabulary.  These tests hold the server's and the router's
handlers, the error path both share, and the tables of
``docs/wire-protocol.md`` §7, §7.3 and §7.4 to it.
"""

import asyncio
import re
from contextlib import asynccontextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.protocol import HashtogramParams
from repro.server import AggregationServer
from repro.server.framing import MESSAGES, Message, encode_frame, read_frame
from repro.server.window import WindowedAggregator

SIDES = {"server": AggregationServer, "router": ClusterRouter}

WIRE_PROTOCOL = Path(__file__).parents[1] / "docs" / "wire-protocol.md"

#: spec section heading -> the sides that answer its table's requests
SPEC_SECTIONS = {"## 7. ": ("server", "router"),
                 "### 7.3 ": ("server",),
                 "### 7.4 ": ("router",)}


@pytest.mark.parametrize("side", SIDES)
def test_every_message_has_a_handler_on_each_side_that_claims_it(side):
    handlers = {name[len("on_"):] for name in dir(SIDES[side])
                if name.startswith("on_")}
    claimed = {kind for kind, entry in MESSAGES.items() if side in entry.sides}
    assert handlers == claimed


def _spec_rows():
    text = WIRE_PROTOCOL.read_text()
    rows = {}
    for heading, sides in SPEC_SECTIONS.items():
        start = text.index("\n" + heading)
        section = text[start:text.index("\n#", start + 1)]
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split(" | ")]
            if not line.startswith("| ") or cells[0] == "request":
                continue
            request, reply = cells[0], cells[1]
            if "`reports` frame" in request:
                kind = "reports"
            else:
                kind = re.search(r'"type": "(\w+)"', request).group(1)
            reply_type = (None if reply == "*none*" else
                          re.search(r'"type": "(\w+)"', reply).group(1))
            kind2 = ("request" if request.startswith("kind-2 frame") else
                     "reply" if reply.startswith("kind-2 frame") else "")
            assert kind not in rows, f"{kind} has two spec rows"
            rows[kind] = Message(reply_type, sides, kind2)
    return rows


def test_spec_tables_equal_message_table():
    assert _spec_rows() == MESSAGES


@asynccontextmanager
async def _serving(side):
    """A server, or a router in front of two shard servers, on this loop."""
    params = HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)
    if side == "server":
        server = AggregationServer(params)
        try:
            yield await server.start()
        finally:
            await server.stop()
        return
    shards = [AggregationServer(params) for _ in range(2)]
    router = ClusterRouter(params, rng=0,
                           endpoints=[await shard.start() for shard in shards])
    try:
        yield await router.start()
    finally:
        await router.stop()
        for shard in shards:
            await shard.stop()


def _json_safe_window_snapshot():
    params = HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)
    gen = np.random.default_rng(1)
    window = WindowedAggregator(params)
    window.absorb_batch(params.make_encoder().encode_batch(
        gen.integers(0, params.domain_size, size=40), gen), 3)
    return window.snapshot()


#: requests a side must answer with an ``error`` frame, keeping the link
ERROR_REQUESTS = {
    "unknown-type": lambda side: {"type": "subscribe"},
    "other-side-only": lambda side: {
        "type": "add_shard" if side == "server" else "handoff",
        "handoff": 1},
    # state travels only in kind-2 frames, even a well-formed JSON one
    "json-absorb_state": lambda side: {
        "type": "absorb_state", "handoff": 1,
        "state": _json_safe_window_snapshot()},
}


@pytest.mark.parametrize("case", ERROR_REQUESTS)
@pytest.mark.parametrize("side", SIDES)
def test_error_reply_keeps_the_connection(side, case):
    request = ERROR_REQUESTS[case](side)

    async def main():
        async with _serving(side) as (host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(encode_frame(request))
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 30)
                assert reply["type"] == "error", reply
                writer.write(encode_frame({"type": "hello"}))
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 30)
                assert reply["type"] == "params"
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(main())
