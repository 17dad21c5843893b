"""Run the committed wire-fuzz regression corpus against the frame parser.

Each corpus case is one frame payload with a pinned verdict: ``accept``
must produce a message dictionary, ``reject`` must raise
:class:`~repro.server.framing.FrameError` — never any other exception
type (a corrupted-in-flight frame that escapes as ``UnicodeDecodeError``
or ``struct.error`` crashes the connection handler; the chaos harness
injects exactly such frames).

The corpus lives in ``tests/data/wire_corpus/corpus.json`` and is
regenerated by ``tests/data/wire_corpus/generate.py``; a determinism test
here keeps the two byte-identical so the committed cases can never drift
from the generator.
"""

import base64
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.protocol.binary import (
    KIND_STATE,
    BinaryFormatError,
    check_reports_payload,
    is_binary_payload,
    payload_kind,
)
from repro.server.framing import FrameError, decode_frame

CORPUS_DIR = Path(__file__).parent / "data" / "wire_corpus"
CORPUS = json.loads((CORPUS_DIR / "corpus.json").read_text())
CASES = CORPUS["cases"]
CASE_IDS = [case["name"] for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_corpus_verdict(case):
    payload = base64.b64decode(case["payload_b64"])
    if case["expect"] == "accept":
        message = decode_frame(payload)
        assert isinstance(message, dict)
        assert "type" in message
    else:
        assert case["expect"] == "reject", case
        # FrameError and nothing else: the service layer catches FrameError
        # and answers with an error frame; anything else kills the handler.
        with pytest.raises(FrameError):
            decode_frame(payload)
    if is_binary_payload(payload) and payload_kind(payload) != KIND_STATE:
        # the router's table-only check gives the shard's verdict
        if case["expect"] == "accept":
            check_reports_payload(payload)
        else:
            with pytest.raises(BinaryFormatError):
                check_reports_payload(payload)


def test_corpus_covers_both_verdicts_and_both_frame_classes():
    verdicts = {case["expect"] for case in CASES}
    assert verdicts == {"accept", "reject"}
    firsts = {base64.b64decode(case["payload_b64"])[:1]
              for case in CASES if case["payload_b64"]}
    assert b"\xb1" in firsts  # binary class represented
    assert b"{" in firsts     # JSON class represented


@pytest.mark.slow
def test_generator_reproduces_committed_corpus(tmp_path):
    """The committed corpus and its generator may never drift apart."""
    script = CORPUS_DIR / "generate.py"
    copied = tmp_path / "generate.py"
    copied.write_text(script.read_text().replace(
        'OUT = Path(__file__).parent / "corpus.json"',
        f'OUT = Path({str(tmp_path / "corpus.json")!r})'))
    subprocess.run([sys.executable, str(copied)], check=True,
                   cwd=str(CORPUS_DIR.parents[2]))
    regenerated = (tmp_path / "corpus.json").read_bytes()
    assert regenerated == (CORPUS_DIR / "corpus.json").read_bytes()
