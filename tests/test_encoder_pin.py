"""Replay the committed encoder-output pin against every client encoder.

``tests/data/encoder_pin/generate.py`` encodes fixed batches with every
registered protocol and records a SHA-256 of each ``encode_batch`` column
plus one generator draw after the encode; ``pins.json`` holds its output.
A hashing kernel, code or randomizer that changes a single report, or the
randomness an encode consumes, changes a pin here.
"""

import importlib.util
import json
from pathlib import Path

from repro.protocol.wire import protocol_names

PIN_DIR = Path(__file__).parent / "data" / "encoder_pin"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "encoder_pin_generate", PIN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_encoder_outputs_match_committed_pin():
    committed = json.loads((PIN_DIR / "pins.json").read_text())["cases"]
    fresh = json.loads(json.dumps(_generator().collect()))
    assert len(fresh) == len(committed)
    for got, want in zip(fresh, committed, strict=True):
        case = (got["protocol"], got["domain_size"], got["first_user_index"])
        assert got == want, case


def test_pin_covers_every_registered_protocol():
    committed = json.loads((PIN_DIR / "pins.json").read_text())["cases"]
    assert sorted({case["protocol"] for case in committed}) == protocol_names()
