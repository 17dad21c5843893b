"""Regenerate the committed wire-fuzz regression corpus (``corpus.json``).

Every case is one frame *payload* (the bytes behind the 4-byte length
prefix) plus the expected verdict of
:func:`repro.server.framing.decode_frame`: ``accept`` (decodes to a
message) or ``reject`` (raises ``FrameError`` — never any other
exception, never a hang, never a crash).  The corpus pins the parser
behavior the chaos harness relies on: corrupted, truncated, and
flag-mangled frames must all reject *cleanly*.

Deterministic by construction (fixed seeds, no wall clock): running

    PYTHONPATH=src python tests/data/wire_corpus/generate.py

must reproduce the committed ``corpus.json`` byte for byte; the test
runner (``tests/test_wire_corpus.py``) enforces exactly that, so the
generator and the committed corpus cannot drift apart.
"""

from __future__ import annotations

import base64
import json
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.protocol import (  # noqa: E402
    ExplicitHistogramParams,
    HashtogramParams,
    RapporParams,
)
from repro.protocol.binary import (  # noqa: E402
    encode_reports_payload,
    pack_state,
    stamp_sequence,
)

OUT = Path(__file__).parent / "corpus.json"


def _batch(n=32, seed=0):
    params = HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=n)
    return params.make_encoder().encode_batch(values, gen)


def _encoded(params, n=32, seed=0):
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=n)
    return encode_reports_payload(
        params.make_encoder().encode_batch(values, gen))


def _recode(payload, entry, code):
    """``payload`` with the column-table entry ``entry`` (name_len, name,
    code_len, code bytes) announcing ``code`` instead, of the same length."""
    at = payload.index(entry)
    return payload[:at] + entry[:-len(code)] + code \
        + payload[at + len(entry):]


def _json_batch(batch):
    """The retired JSON wire form of a batch (base64 columns), which
    ``decode_frame`` still parses and the services then reject."""
    columns = {key: {"dtype": col.dtype.str,
                     "shape": [int(n) for n in col.shape],
                     "data": base64.b64encode(col.tobytes()).decode("ascii")}
               for key, col in batch.columns.items()}
    return {"protocol": batch.protocol, "encoding": "b64",
            "num_reports": len(batch), "columns": columns}


def _cases():
    batch = _batch()
    binary = encode_reports_payload(batch, epoch=3)
    routed = encode_reports_payload(batch, epoch=3, route=4096)
    sequenced = stamp_sequence(routed, 17)
    json_reports = json.dumps(
        {"type": "reports", "epoch": 3, "batch": _json_batch(batch)},
        separators=(",", ":")).encode("utf-8")
    empty = encode_reports_payload(_batch(n=0, seed=1))
    # hashtogram packs repetition at 3 bits, row (< 64) at 6 and bit as a
    # sign column; a 1024-item Hadamard row needs 11 bits
    row = b"\x03\x00row\x02p6"
    wide = _encoded(ExplicitHistogramParams(1024, 1.0, "hadamard"))
    # the row entry's nbytes field: after the entry, ndim (u8), one u64
    # dim and the u64 offset
    nbytes_at = binary.index(row) + len(row) + 1 + 8 + 8
    (row_nbytes,) = struct.unpack_from("<Q", binary, nbytes_at)
    # a zero-report RAPPOR frame: one |u1 column of shape (0, 16)
    rappor = RapporParams.create(64, 2.0, num_bits=16, rng=0)
    empty_2d = encode_reports_payload(rappor.make_encoder().encode_batch(
        np.zeros(0, dtype=np.int64), np.random.default_rng(0)))
    dims = struct.pack("<QQ", 0, 16)

    cases = [
        # ----- accepted frames --------------------------------------------------------
        ("json-control-hello", b'{"type":"hello"}', "accept",
         "minimal JSON control frame"),
        ("json-reports-b64", json_reports, "accept",
         "canonical JSON reports frame"),
        ("json-reports-seq", json.dumps(
            {"type": "reports", "epoch": 0, "seq": 5,
             "batch": _json_batch(batch)},
            separators=(",", ":")).encode("utf-8"), "accept",
         "JSON reports frame with a delivery sequence number"),
        ("binary-plain", binary, "accept",
         "canonical binary reports payload"),
        ("binary-routed", routed, "accept",
         "binary payload with the FLAG_ROUTED header field"),
        ("binary-routed-sequenced", sequenced, "accept",
         "binary payload with route and seq header fields"),
        ("binary-empty-batch", empty, "accept",
         "zero-report binary payload round-trips"),
        ("binary-packed-11-bit-column", wide, "accept",
         "an 11-bit packed column next to a sign column"),
        ("binary-packed-2d-bits", _encoded(rappor), "accept",
         "a 2-D 0/1 column packed at one bit per cell"),
        # ----- rejected frames --------------------------------------------------------
        ("json-invalid-syntax", b"{nope", "reject",
         "malformed JSON must raise FrameError"),
        ("json-non-object", b"[1,2,3]", "reject",
         "a frame payload must be a JSON object"),
        ("json-bad-utf8", b'{"type":"reports"}'[:10] + b"\xa0\xff\xfe}",
         "reject",
         "bytes that are neither binary magic nor UTF-8 (regression: used "
         "to crash the connection handler with UnicodeDecodeError)"),
        ("binary-corrupt-magic", bytes([binary[0] ^ 0xFF]) + binary[1:],
         "reject",
         "first-byte bit flip: 0xB1 becomes 0x4E, invalid either way"),
        ("binary-bad-version", binary[:1] + b"\x7f" + binary[2:], "reject",
         "unknown binary format version"),
        ("binary-bad-kind", binary[:2] + b"\x09" + binary[3:], "reject",
         "unknown payload kind"),
        ("binary-unknown-flag", binary[:3] + b"\x04" + binary[4:], "reject",
         "undefined header flag bit (only ROUTED|SEQUENCED are defined)"),
        ("binary-truncated-header", binary[:3], "reject",
         "payload shorter than the fixed header"),
        ("binary-truncated-half", binary[: len(binary) // 2], "reject",
         "mid-frame truncation (what a chaos `truncate` fault delivers)"),
        ("binary-truncated-seq-field", sequenced[:16], "reject",
         "sequenced payload cut inside the seq field"),
        ("binary-empty", b"", "reject", "empty payload"),
        ("binary-magic-only", b"\xb1", "reject", "magic byte alone"),
        # fixed header is magic/version/kind/flags (4 bytes) then
        # epoch i64 + num_reports u64 + proto_len u16 + num_columns u16:
        # the column count lives at bytes [22, 24)
        ("binary-column-count-overflow",
         binary[:22] + struct.pack("<H", 0xFFFF) + binary[24:], "reject",
         "column count inflated: the table walk must stop at the frame "
         "edge, not read past it"),
        ("binary-packed-nbytes-mismatch",
         binary[:nbytes_at] + struct.pack("<Q", row_nbytes + 1)
         + binary[nbytes_at + 8:], "reject",
         "a packed column's nbytes must be ceil(count * bits / 8)"),
        ("binary-packed-width-changed", _recode(binary, row, b"p7"),
         "reject",
         "a packed column re-announced at 7 bits no longer matches its "
         "nbytes"),
        ("binary-packed-zero-width", _recode(binary, row, b"p0"), "reject",
         "bit width 0 is outside 1..64"),
        ("binary-packed-width-past-64",
         _recode(wide, b"\x03\x00row\x03p11", b"p65"), "reject",
         "bit width 65 is outside 1..64"),
        ("binary-packed-truncated-blob", binary[:-1], "reject",
         "the last packed column's data ends past the frame"),
        ("binary-zero-report-dim-past-intp",
         empty_2d.replace(dims, struct.pack("<QQ", 0, 1 << 63)), "reject",
         "a zero-report column carries no data, so only numpy's limits "
         "bound its other dims: a dim of 2**63 must reject in the table "
         "check, not in the reshape"),
        ("state-frame-packed-code",
         _recode(bytes(pack_state({"type": "state", "c": np.arange(5)},
                                  lists=False)), b"\x03|u1", b"p11"),
         "reject",
         "packed codes are valid in kind-1 column tables only"),
        ("binary-data-corruption-is-invisible",
         binary[:-8] + struct.pack("<Q", 1 << 62), "accept",
         "flipping trailing *data* bytes decodes fine: there is no "
         "checksum, undetectable data corruption is a documented "
         "non-goal (docs/chaos.md) — this case pins that boundary"),
    ]
    return cases


def main() -> None:
    payload = {
        "_comment": "wire-fuzz regression corpus; regenerate with "
                    "`PYTHONPATH=src python tests/data/wire_corpus/"
                    "generate.py` (must be byte-identical, see "
                    "tests/test_wire_corpus.py)",
        "cases": [
            {"name": name,
             "payload_b64": base64.b64encode(raw).decode("ascii"),
             "expect": expect,
             "note": note}
            for name, raw, expect, note in _cases()
        ],
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(payload['cases'])} cases)")


if __name__ == "__main__":
    main()
