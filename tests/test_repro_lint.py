"""Tests for the repo-native static-analysis suite (:mod:`repro.tools.lint`).

Each rule family is exercised twice: a *flagging* fixture (a minimal tree
that must produce the family's finding) and a *near-miss* fixture (the
closest legal code, which must stay clean) — the near-misses are what keep
the suite usable, since a rule that cries wolf gets pragma'd into silence.
The suite also self-tests: the repo's own ``src/`` tree must lint clean,
which is exactly the CI gate (``python -m repro.tools.lint src/ tests/``).
"""

import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import Diagnostic, lint_paths, main
from repro.tools.lint.diagnostics import PragmaIndex, match_code, selected
from repro.tools.lint.rules.wire_schema import parse_wire_doc

REPO = Path(__file__).resolve().parents[1]
WIRE_DOC = REPO / "docs" / "wire-protocol.md"


def run_lint(tmp_path, files, select=(), ignore=(), wire_doc=None):
    """Materialize ``{relpath: source}`` under a tmp tree and lint it."""
    root = tmp_path / "tree"
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return lint_paths([root], select=select, ignore=ignore,
                      wire_doc=wire_doc)


def codes(diagnostics):
    return [d.code for d in diagnostics]


# --------------------------------------------------------------------------------------
# diagnostics plumbing
# --------------------------------------------------------------------------------------

class TestDiagnostics:
    def test_format_and_hint(self):
        diag = Diagnostic(path="a.py", line=3, col=7, code="RPL101",
                          message="boom", hint="seed it")
        assert diag.format() == "a.py:3:7: RPL101 [error] boom"
        assert "fix-hint: seed it" in diag.format(show_hint=True)

    def test_match_code_family_prefix(self):
        assert match_code("RPL104", ["RPL1"])
        assert match_code("RPL104", ["RPL104"])
        assert not match_code("RPL104", ["RPL2", "RPL105"])

    def test_select_then_ignore(self):
        assert selected("RPL101", ["RPL1"], [])
        assert not selected("RPL101", ["RPL2"], [])
        assert not selected("RPL101", ["RPL1"], ["RPL101"])
        assert selected("RPL102", ["RPL1"], ["RPL101"])

    def test_pragma_parse_same_line_and_standalone(self):
        index = PragmaIndex.parse(textwrap.dedent("""\
            x = 1  # repro-lint: ignore[RPL103] logging only
            # repro-lint: ignore[RPL1] fixture block below
            y = 2
        """))
        assert index.suppresses(1, "RPL103")
        assert not index.suppresses(1, "RPL102")
        assert index.suppresses(3, "RPL104")


# --------------------------------------------------------------------------------------
# RPL1 — determinism
# --------------------------------------------------------------------------------------

class TestDeterminismRules:
    def test_global_rng_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/sampler.py": """\
            import numpy as np

            def sample(n):
                return np.random.rand(n)
        """})
        assert codes(diags) == ["RPL102"]

    def test_stdlib_random_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/engine/pick.py": """\
            import random

            def pick(items):
                return random.choice(items)
        """})
        assert codes(diags) == ["RPL102"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/randomizers/fresh.py": """\
            import numpy as np

            def fresh():
                return np.random.default_rng()
        """})
        assert codes(diags) == ["RPL101"]

    def test_wall_clock_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/stamp.py": """\
            import time

            def stamp():
                return time.time()
        """})
        assert codes(diags) == ["RPL103"]

    def test_set_iteration_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/order.py": """\
            def walk(xs):
                out = []
                for x in set(xs):
                    out.append(x)
                return out + list({1, 2, 3})
        """})
        assert codes(diags) == ["RPL104", "RPL104"]

    def test_near_misses_stay_clean(self, tmp_path):
        diags = run_lint(tmp_path, {
            # seeded generator, perf_counter, sorted set: all legal
            "repro/protocol/clean.py": """\
                import time

                import numpy as np

                def sample(n, rng):
                    gen = np.random.default_rng(rng)
                    tick = time.perf_counter()
                    order = sorted({1, 2, 3})
                    return gen.integers(0, 10, size=n), tick, order
            """,
            # same hazards outside the deterministic zones are not flagged
            "repro/estimators/loose.py": """\
                import numpy as np

                def sample(n):
                    return np.random.rand(n)
            """,
        })
        assert diags == []


# --------------------------------------------------------------------------------------
# RPL2 — exact-integer aggregator state
# --------------------------------------------------------------------------------------

class TestExactnessRules:
    def test_hot_zone_float_operations_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/agg.py": """\
            import numpy as np

            from repro.protocol.wire import ServerAggregator

            class MyAggregator(ServerAggregator):
                def _merge_impl(self, other):
                    self.scale = 0.5
                    self.count = self.count / 2
                    self.value = float(self.value)
                    self.cells = self.cells.astype(np.float64)
                    self.grid = np.zeros(4, dtype=float)
                    return self
        """})
        assert codes(diags) == ["RPL201", "RPL202", "RPL204", "RPL203",
                                "RPL203"]

    def test_report_cells_hook_is_in_zone(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/cells.py": """\
            from repro.protocol.wire import ServerAggregator

            class CellAggregator(ServerAggregator):
                def _report_cells(self, columns):
                    return columns["row"] * 1.0, columns["bit"]
        """})
        assert codes(diags) == ["RPL201"]

    def test_transitive_subclass_is_in_zone(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/deep.py": """\
            from repro.protocol.wire import ServerAggregator

            class Base(ServerAggregator):
                pass

            class Leaf(Base):
                def absorb_batch(self, reports):
                    self.total += len(reports) / 1
        """})
        assert codes(diags) == ["RPL202"]

    def test_exact_decode_functions_are_in_zone(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/randomizers/hadamard.py": """\
                def _butterflies(vec):
                    return vec * 1.0

                def hadamard_outputs(accumulator, count):
                    return accumulator[1:count + 1] / 2

                def fast_walsh_hadamard_transform(vector):
                    return _butterflies(vector / 1.0)
            """,
            "repro/protocol/heavy_hitters.py": """\
                def _best_cells(outputs):
                    return outputs.argmax(axis=-1), float(outputs.max())

                def stage1_best(block, shape):
                    return _best_cells(block.counts.reshape(shape)) / 2.0
            """,
        })
        assert sorted((Path(d.path).name, d.line, d.code) for d in diags) == [
            ("hadamard.py", 2, "RPL201"), ("hadamard.py", 5, "RPL202"),
            ("heavy_hitters.py", 2, "RPL204")]

    def test_near_misses_stay_clean(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/fine.py": """\
            from repro.protocol.wire import ServerAggregator

            class FineAggregator(ServerAggregator):
                def _merge_impl(self, other):
                    self.count = self.count // 2
                    return self

                def finalize(self):
                    # debiasing is float math by design: outside the zone
                    return self.count / (1.0 - 0.5)

            class NotAnAggregator:
                def merge(self, other):
                    return self.count / 2
        """})
        assert diags == []


# --------------------------------------------------------------------------------------
# RPL3 — async safety
# --------------------------------------------------------------------------------------

class TestAsyncSafetyRules:
    def test_blocking_calls_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/server/svc.py": """\
            import time

            class Service:
                async def handle(self):
                    time.sleep(1)
                    data = open("f").read()
                    return self.store.save(data)
        """})
        assert codes(diags) == ["RPL301", "RPL301", "RPL301"]

    def test_spawned_server_block_flagged(self, tmp_path):
        # spawning waits for the child's LISTENING line and the teardown
        # waits for its exit: both would stall the loop
        diags = run_lint(tmp_path, {"repro/cluster/grow.py": """\
            from repro.cluster.supervisor import spawned_server

            class Router:
                async def grow(self, params):
                    with spawned_server(params) as server:
                        return server.port
        """})
        assert codes(diags) == ["RPL301"]
        assert "spawned_server" in diags[0].message

    def test_supervisor_spawn_and_reap_flagged(self, tmp_path):
        # each spawns or reaps shard processes and waits for them
        diags = run_lint(tmp_path, {"repro/cluster/grow.py": """\
            class Router:
                async def grow(self):
                    self.supervisor.launch()
                    self.supervisor.await_started()
                    self.supervisor.add_shard()
                    self.supervisor.retire(0)
        """})
        assert codes(diags) == ["RPL301"] * 4
        assert [d.message.split("(")[0] for d in diags] == [
            f"`self.supervisor.{name}" for name in
            ("launch", "await_started", "add_shard", "retire")]

    def test_check_then_act_race_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/cluster/boot.py": """\
            class Router:
                async def start(self):
                    if self._server is None:
                        await self.bind()
                        self._server = object()
        """})
        assert codes(diags) == ["RPL302"]

    def test_near_misses_stay_clean(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/server/fine.py": """\
            import asyncio
            import time

            class Service:
                def sync_helper(self):
                    # synchronous helpers may block: they run in executors
                    time.sleep(1)
                    return open("f").read()

                async def handle(self):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(None, self.sync_helper)

                async def locked_update(self):
                    async with self._lock:
                        if self._server is None:
                            await self.bind()
                            self._server = object()

                async def commit_before_await(self):
                    self._server = object()
                    await self.bind()

                async def counters(self, kind):
                    # unawaited += is atomic on the loop; two exclusive
                    # branches must not pair up across their awaits
                    if kind == "query":
                        self.stats.queries += 1
                        await self.reply()
                        return
                    if kind == "state":
                        await self.compute()
                        self.stats.queries += 1
        """})
        assert diags == []

    def test_blocking_wait_in_transport_ring_flagged(self, tmp_path):
        # the shm ring's wait path spins on shared counters inside `async
        # def`: a time.sleep there freezes every link on the event loop
        diags = run_lint(tmp_path, {"repro/transport/ring.py": """\
            import time

            class RingReader:
                async def readexactly(self, n):
                    while self._readable() < n:
                        time.sleep(0.0005)
                    return self._take(n)
        """})
        assert codes(diags) == ["RPL301"]
        assert "time.sleep" in diags[0].message

    def test_asyncio_pause_in_transport_ring_is_clean(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/transport/ring.py": """\
            import asyncio

            class RingReader:
                async def readexactly(self, n):
                    spins = 0
                    while self._readable() < n:
                        await asyncio.sleep(0 if spins < 128 else 0.0005)
                        spins += 1
                    return self._take(n)
        """})
        assert diags == []

    def test_blocking_outside_async_zone_ignored(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/engine/worker.py": """\
            import time

            async def crunch(self):
                time.sleep(1)
        """})
        assert diags == []


# --------------------------------------------------------------------------------------
# RPL4 — wire-schema drift
# --------------------------------------------------------------------------------------

BINARY_MODULE = """\
    import struct

    BINARY_MAGIC = 0xB1
    BINARY_VERSION = 1
    KIND_REPORTS = 1
    KIND_STATE = 2
    FLAG_ROUTED = 0x01
    FLAG_SEQUENCED = 0x02

    _HEADER = struct.Struct("<BBBB")
    _REPORTS_FIXED = struct.Struct("<qQHH")
    _ROUTE_FIELD = struct.Struct("<q")
    _SEQ_FIELD = struct.Struct("<Q")
    _STATE_FIXED = struct.Struct("<II")
"""

FRAMING_MODULE = """\
    import struct

    MAX_FRAME_BYTES = 1 << 30
    _HEADER = struct.Struct("!I")
"""

SHM_MODULE = """\
    import struct

    RING_MAGIC = 0x52494E47
    CTL_MAGIC = 0x444F4F52
    RING_VERSION = 1

    _RING_HEADER = struct.Struct("<IIQQQII")
    _CTL_HEADER = struct.Struct("<IIII")
    _SLOT = struct.Struct("<II")
"""


class TestWireSchemaRules:
    def test_doc_parses_to_expected_schema(self):
        schema = parse_wire_doc(WIRE_DOC.read_text())
        assert schema.problems == []
        assert schema.constants == {
            "BINARY_MAGIC": 0xB1, "BINARY_VERSION": 1, "KIND_REPORTS": 1,
            "KIND_STATE": 2, "FLAG_ROUTED": 0x01, "FLAG_SEQUENCED": 0x02,
            "MAX_FRAME_BYTES": 1 << 30,
            "RING_MAGIC": 0x52494E47, "CTL_MAGIC": 0x444F4F52,
            "RING_VERSION": 1,
            "SNAPSHOT_MAGIC": 0x504E5352,
            "_MAX_RECORD_BYTES": 1 << 30,
        }
        assert schema.structs["protocol/binary.py"] == {
            "_HEADER": "<BBBB", "_REPORTS_FIXED": "<qQHH",
            "_ROUTE_FIELD": "<q", "_SEQ_FIELD": "<Q", "_STATE_FIXED": "<II",
        }
        assert schema.structs["server/framing.py"] == {"_HEADER": "!I"}
        assert schema.structs["transport/shm.py"] == {
            "_RING_HEADER": "<IIQQQII", "_CTL_HEADER": "<IIII",
            "_SLOT": "<II",
        }
        assert schema.structs["server/snapshot.py"] == {
            "_CONTAINER_HEADER": "<III",
        }
        assert schema.structs["cluster/journal.py"] == {
            "_RECORD_HEADER": "<II", "_ENTRY_FIXED": "<IQ",
        }

    def test_matching_modules_are_clean(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/protocol/binary.py": BINARY_MODULE,
            "repro/server/framing.py": FRAMING_MODULE,
        }, wire_doc=WIRE_DOC)
        assert diags == []

    def test_doctored_magic_is_drift(self, tmp_path):
        doctored = BINARY_MODULE.replace("BINARY_MAGIC = 0xB1",
                                         "BINARY_MAGIC = 0xB2")
        diags = run_lint(tmp_path, {"repro/protocol/binary.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL401"]
        assert "BINARY_MAGIC" in diags[0].message

    def test_doctored_struct_format_is_drift(self, tmp_path):
        doctored = BINARY_MODULE.replace('"<qQHH"', '"<qQHI"')
        diags = run_lint(tmp_path, {"repro/protocol/binary.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL401"]
        assert "_REPORTS_FIXED" in diags[0].message

    def test_missing_required_constant(self, tmp_path):
        doctored = BINARY_MODULE.replace("    FLAG_ROUTED = 0x01\n", "")
        diags = run_lint(tmp_path, {"repro/protocol/binary.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL402"]
        assert "FLAG_ROUTED" in diags[0].message

    def test_missing_doc_reported(self, tmp_path):
        diags = run_lint(tmp_path,
                         {"repro/protocol/binary.py": BINARY_MODULE})
        assert codes(diags) == ["RPL400"]

    def test_doctored_doc_is_unparseable(self, tmp_path):
        stripped = "\n".join(
            line for line in WIRE_DOC.read_text().splitlines()
            if not line.startswith("magic"))
        doc = tmp_path / "wire-protocol.md"
        doc.write_text(stripped)
        diags = run_lint(tmp_path,
                         {"repro/protocol/binary.py": BINARY_MODULE},
                         wire_doc=doc)
        assert "RPL400" in codes(diags)
        assert any("BINARY_MAGIC" in d.message for d in diags)

    def test_frame_limit_drift(self, tmp_path):
        doctored = FRAMING_MODULE.replace("1 << 30", "1 << 20")
        diags = run_lint(tmp_path, {"repro/server/framing.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL401"]
        assert "MAX_FRAME_BYTES" in diags[0].message

    def test_matching_shm_module_is_clean(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/transport/shm.py": SHM_MODULE},
                         wire_doc=WIRE_DOC)
        assert diags == []

    def test_doctored_ring_header_is_drift(self, tmp_path):
        # dropping the close flags changes every peer's byte offsets
        doctored = SHM_MODULE.replace('"<IIQQQII"', '"<IIQQQ"')
        diags = run_lint(tmp_path, {"repro/transport/shm.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL401"]
        assert "_RING_HEADER" in diags[0].message

    def test_missing_ring_magic_reported(self, tmp_path):
        doctored = SHM_MODULE.replace("    RING_MAGIC = 0x52494E47\n", "")
        diags = run_lint(tmp_path, {"repro/transport/shm.py": doctored},
                         wire_doc=WIRE_DOC)
        assert codes(diags) == ["RPL402"]
        assert "RING_MAGIC" in diags[0].message


# --------------------------------------------------------------------------------------
# RPL5 — protocol contracts
# --------------------------------------------------------------------------------------

CONTRACT_MODULE = """\
    from repro.protocol.wire import PublicParams, ServerAggregator, register_protocol

    @register_protocol
    class GoodParams(PublicParams):
        def make_encoder(self):
            return None

        def make_aggregator(self):
            return GoodAggregator(self)

        def _payload_dict(self):
            return {}

        @classmethod
        def _from_payload(cls, payload):
            return cls()

    class GoodAggregator(ServerAggregator):
        def _report_cells(self, columns):
            return columns["cell"], columns["weight"]

        def finalize(self):
            return self.n
"""


class TestContractRules:
    def test_complete_protocol_is_clean(self, tmp_path):
        diags = run_lint(tmp_path,
                         {"repro/protocol/impl.py": CONTRACT_MODULE})
        assert diags == []

    def test_missing_params_hook_is_rpl503(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "        def make_encoder(self):\n            return None\n\n",
            "")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert codes(diags) == ["RPL503"]
        assert "make_encoder" in diags[0].message

    def test_missing_finalize_is_rpl501(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "        def finalize(self):\n            return self.n\n", "")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert codes(diags) == ["RPL501"]
        assert "finalize" in diags[0].message

    def test_missing_delegate_hook_is_rpl501(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "        def _report_cells(self, columns):\n"
            "            return columns[\"cell\"], columns[\"weight\"]\n\n",
            "")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert codes(diags) == ["RPL501"]
        assert "_report_cells" in diags[0].message

    def test_overriding_public_method_excuses_hook(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "def _report_cells(self, columns):",
            "def absorb_batch(self, columns):")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert diags == []

    def test_signature_arity_mismatch_is_rpl502(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "        def finalize(self):",
            "        def merge(self, other, strict):\n"
            "            return self\n\n"
            "        def finalize(self):")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert codes(diags) == ["RPL502"]
        assert "merge" in diags[0].message

    def test_extra_defaulted_parameters_are_compatible(self, tmp_path):
        doctored = CONTRACT_MODULE.replace(
            "def finalize(self):", "def finalize(self, debias=True):")
        diags = run_lint(tmp_path, {"repro/protocol/impl.py": doctored})
        assert diags == []

    def test_unregistered_classes_are_not_checked(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/loose.py": """\
            from repro.protocol.wire import ServerAggregator

            class HalfDone(ServerAggregator):
                pass
        """})
        assert diags == []


# --------------------------------------------------------------------------------------
# RPL6 — layer DAG
# --------------------------------------------------------------------------------------

SERVING_LAYERS = ("transport", "server", "cluster", "protocol", "engine")
ANALYSIS_LAYERS = ("accounting", "structure", "lowerbounds", "experiments",
                   "scipy")


class TestLayerRules:
    def test_upward_and_third_party_imports_flagged(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/server/svc.py": """\
                import scipy.special
                from repro.experiments import run_table1
            """,
            "repro/server/rel.py": "from ..experiments import run_table1\n",
            "repro/protocol/up.py": "from repro.cluster import router\n",
            "repro/cli.py": "from repro.experiments import format_table\n",
            "repro/core/__init__.py":
                "from repro.core.heavy_hitters import PrivateExpanderSketch\n",
        })
        assert codes(diags) == ["RPL601"] * 6
        flagged = sorted((Path(d.path).parent.name, Path(d.path).name, d.line)
                         for d in diags)
        assert flagged == [("core", "__init__.py", 1), ("protocol", "up.py", 1),
                           ("repro", "cli.py", 1), ("server", "rel.py", 1),
                           ("server", "svc.py", 1), ("server", "svc.py", 2)]
        assert any("`scipy`" in d.message for d in diags)

    def test_package_root_names_are_not_a_layer(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/server/svc.py": "from repro import HashtogramParams\n",
            "repro/cluster/ok.py": "from repro import transport\n",
        })
        assert codes(diags) == ["RPL601"]
        assert Path(diags[0].path).name == "svc.py"

    def test_near_misses_stay_clean(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/server/svc.py": """\
                from typing import TYPE_CHECKING

                import numpy as np

                from repro.protocol.wire import ReportBatch
                from repro.utils.rng import as_generator

                if TYPE_CHECKING:
                    from repro.cluster.router import ClusterRouter

                def run_experiment():
                    import scipy
                    from repro.experiments import run_table1
                    return scipy, run_table1, np, ReportBatch, as_generator
            """,
            "repro/structure/rr.py": "from scipy.special import logsumexp\n",
            "repro/core/heavy_hitters.py": "from repro.engine import engine\n",
            "repro/newpkg/mod.py": "import scipy\n",
            "elsewhere/script.py": "import scipy\nimport repro\n",
        })
        assert diags == []

    def test_cluster_supervisor_loads_no_numpy(self, tmp_path):
        diags = run_lint(tmp_path, {
            "repro/cluster/supervisor.py": "import json\nimport numpy as np\n",
            "repro/cluster/router.py": """\
                import numpy as np

                from repro.cluster.supervisor import ClusterSupervisor
            """,
        }, select=("RPL6",))
        assert codes(diags) == ["RPL601"]
        assert Path(diags[0].path).name == "supervisor.py"
        assert "`numpy`" in diags[0].message

    def test_layer_table_is_a_dag(self):
        from repro.tools.lint.rules.layers import BELOW, LAYERS

        for layer, edges in LAYERS.items():
            assert set(edges) <= set(LAYERS), layer
            assert layer not in BELOW[layer], f"{layer} is on a cycle"

    def test_serving_layers_never_reach_analysis_layers(self):
        from repro.tools.lint.rules.layers import BELOW

        for layer in SERVING_LAYERS:
            assert not BELOW[layer] & set(ANALYSIS_LAYERS), layer

    def test_every_subpackage_has_a_layer(self):
        from repro.tools.lint.rules.layers import LAYERS

        package = REPO / "src" / "repro"
        subpackages = {path.parent.name
                       for path in package.glob("*/__init__.py")}
        assert subpackages <= set(LAYERS)


# --------------------------------------------------------------------------------------
# pragmas, selection, CLI
# --------------------------------------------------------------------------------------

class TestSuppressionAndCli:
    def test_pragma_with_reason_suppresses(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/noisy.py": """\
            import numpy as np

            def jitter(n):
                # fixture: justified global draw
                return np.random.rand(n)  # repro-lint: ignore[RPL102] test fixture only
        """})
        assert diags == []

    def test_family_pragma_on_preceding_line(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/noisy.py": """\
            import numpy as np

            def jitter(n):
                # repro-lint: ignore[RPL1] fixture exercises the rng path
                return np.random.rand(n)
        """})
        assert diags == []

    def test_pragma_without_reason_is_rpl001(self, tmp_path):
        # assembled at runtime so this test file's own source does not
        # contain a reasonless pragma (the suite lints tests/ too)
        bare_pragma = "# repro-lint: " + "ignore[RPL102]"
        diags = run_lint(tmp_path, {"repro/protocol/noisy.py": f"""\
            import numpy as np

            def jitter(n):
                return np.random.rand(n)  {bare_pragma}
        """})
        assert codes(diags) == ["RPL001"]

    def test_pragma_that_suppresses_nothing_is_rpl001(self, tmp_path):
        files = {"repro/protocol/quiet.py": """\
            import numpy as np

            def ordered(n):
                # repro-lint: ignore[RPL102] nothing random here any more
                return np.arange(n)
        """}
        diags = run_lint(tmp_path, dict(files))
        assert codes(diags) == ["RPL001"]
        assert "suppresses nothing" in diags[0].message
        assert diags[0].line == 4
        # a run that skips the named rule cannot call the pragma stale
        assert run_lint(tmp_path, dict(files), select=["RPL2"]) == []
        assert run_lint(tmp_path, dict(files), ignore=["RPL1"]) == []
        assert codes(run_lint(tmp_path, dict(files),
                              select=["RPL0", "RPL1"])) == ["RPL001"]

    def test_pragma_text_inside_a_string_is_not_a_pragma(self, tmp_path):
        diags = run_lint(tmp_path, {"repro/protocol/doc.py": """\
            EXAMPLE = "x = 1  # repro-lint: ignore[RPL103] example text"
        """})
        assert diags == []

    def test_select_and_ignore_filtering(self, tmp_path):
        files = {"repro/protocol/mixed.py": """\
            import time

            import numpy as np

            def both(n):
                stamp = time.time()
                return np.random.rand(n), stamp
        """}
        assert codes(run_lint(tmp_path, dict(files))) == ["RPL103", "RPL102"]
        assert codes(run_lint(tmp_path, dict(files),
                              select=["RPL103"])) == ["RPL103"]
        assert codes(run_lint(tmp_path, dict(files),
                              ignore=["RPL103"])) == ["RPL102"]

    def test_parse_error_is_rpl002(self, tmp_path):
        diags = run_lint(tmp_path,
                         {"repro/protocol/broken.py": "def oops(:\n"})
        assert codes(diags) == ["RPL002"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "protocol" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("VALUE = 1\n")
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().err

        dirty = tmp_path / "repro" / "protocol" / "bad.py"
        dirty.write_text("import numpy as np\n\n"
                         "def f(n):\n    return np.random.rand(n)\n")
        assert main([str(dirty), "--statistics", "--fix-hints"]) == 1
        captured = capsys.readouterr()
        assert "RPL102" in captured.out
        assert "fix-hint:" in captured.out

        assert main([str(tmp_path / "missing")]) == 2

    def test_bad_visit_method_name_raises(self):
        from repro.tools.lint.engine import LintConfig, LintEngine, Rule

        class Broken(Rule):
            def visit_NotANode(self, node, ctx):  # pragma: no cover
                pass

        with pytest.raises(ValueError, match="NotANode"):
            LintEngine([Broken()], LintConfig())


# --------------------------------------------------------------------------------------
# self-test: the repo's own tree must be clean (this is the CI gate)
# --------------------------------------------------------------------------------------

class TestSelfClean:
    def test_repo_source_lints_clean(self):
        diags = lint_paths([REPO / "src"])
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_repo_tests_lint_clean(self):
        diags = lint_paths([REPO / "tests"])
        assert diags == [], "\n".join(d.format() for d in diags)
