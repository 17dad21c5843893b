"""Replay the committed replies corpus against a server and a router.

``tests/data/dispatch_corpus/generate.py`` sends a fixed request list to an
in-process server and to an in-process 2-shard router and records every
reply, and whether the connection stayed open.  ``replies.json`` holds the
output of that generator, so a change to dispatch shows up here as a
changed reply.  Error text is free to change; the reply types, error
codes, every other field and the open/closed verdicts are not.
"""

import importlib.util
import json
from pathlib import Path

CORPUS_DIR = Path(__file__).parent / "data" / "dispatch_corpus"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "dispatch_corpus_generate", CORPUS_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_error_text(value):
    if isinstance(value, dict):
        return {key: _without_error_text(item) for key, item in value.items()
                if not (key == "error" and value.get("type") == "error")}
    if isinstance(value, list):
        return [_without_error_text(item) for item in value]
    return value


def test_replies_match_committed_corpus():
    committed = json.loads((CORPUS_DIR / "replies.json").read_text())
    fresh = json.loads(json.dumps(_generator().collect()))
    for side in ("server", "router"):
        assert [case["case"] for case in fresh[side]] == \
            [case["case"] for case in committed[side]]
        for got, want in zip(fresh[side], committed[side]):
            assert _without_error_text(got) == _without_error_text(want), \
                f"{side}: {got['case']}"
