"""Cold start: parallel shard spawn and stop, SIGTERM clean-up (also while
the shards are still starting), and the import closure.

A cluster should start in about one router start plus one shard start, so
:class:`ClusterSupervisor` launches every shard before it waits for any
``LISTENING`` line; the serving processes import only the layers they
serve (``docs/architecture.md`` §"Start-up").  The spawn tests point the
supervisor's launch step at a stub child, so they time the supervisor,
not the interpreter's import speed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cluster.supervisor as supervisor_module
from repro.cluster import ClusterSupervisor
from repro.protocol import HashtogramParams
from repro.protocol.binary import encode_reports_payload

SRC = Path(repro.__file__).resolve().parent.parent

#: layers a serving process (shard, router, client transport) must not load
SERVING_FORBIDDEN = ("scipy", "repro.accounting", "repro.structure",
                     "repro.lowerbounds", "repro.experiments")

SERVING_CLOSURE = ("import repro.cli, repro.server.service, "
                   "repro.cluster.router, repro.transport")


def _stub_child(index: int, delay: float, first_line: str,
                exit_delay: float = 0.0) -> subprocess.Popen:
    """A stand-in shard: sleeps, prints ``first_line``, then idles; with
    ``exit_delay`` it takes that long to exit on ``SIGTERM``."""
    code = "import time\n"
    if exit_delay:
        code += ("import signal, sys\n"
                 "signal.signal(signal.SIGTERM, lambda *_: "
                 f"(time.sleep({exit_delay}), sys.exit(0)))\n")
    code += (f"time.sleep({delay}); print({first_line!r}, flush=True); "
             f"time.sleep(60)")
    return subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, text=True)


def _stub_launcher(children, bad_index=None, delay=1.0, exit_delay=0.0):
    """A ``launch_server_process`` replacement recording every child."""

    def launch(verb="serve", params_file=None, extra_args=()):
        shard_dir = Path(extra_args[extra_args.index("--snapshot-dir") + 1])
        index = int(shard_dir.name.split("-")[1])
        if index == bad_index:
            proc = _stub_child(index, 0.0, "Traceback: boom")
        else:
            proc = _stub_child(index, delay,
                               f"LISTENING 127.0.0.1 {7000 + index}",
                               exit_delay)
        children.append(proc)
        return proc

    return launch


@pytest.fixture
def params():
    return HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)


class TestParallelSpawn:
    def test_three_shards_start_in_one_startup(self, params, tmp_path,
                                               monkeypatch):
        children = []
        monkeypatch.setattr(supervisor_module, "launch_server_process",
                            _stub_launcher(children))
        supervisor = ClusterSupervisor(params, 3, tmp_path)
        try:
            start = time.perf_counter()
            endpoints = supervisor.start()
            elapsed = time.perf_counter() - start
        finally:
            supervisor.stop()
        # each stub takes 1 s to its LISTENING line: serial spawn >= 3 s
        assert elapsed < 2.0, elapsed
        assert endpoints == [("127.0.0.1", 7000), ("127.0.0.1", 7001),
                             ("127.0.0.1", 7002)]
        assert all(child.poll() is not None for child in children)

    def test_one_bad_shard_reaps_every_launched_child(self, params, tmp_path,
                                                      monkeypatch):
        children = []
        monkeypatch.setattr(supervisor_module, "launch_server_process",
                            _stub_launcher(children, bad_index=1))
        supervisor = ClusterSupervisor(params, 3, tmp_path)
        with pytest.raises(RuntimeError, match="Traceback: boom"):
            supervisor.start()
        assert len(children) == 3
        assert all(child.poll() is not None for child in children)
        assert supervisor.shards == []

    def test_timeout_reaps_every_launched_child(self):
        children = [_stub_child(0, 0.0, "LISTENING 127.0.0.1 7000"),
                    _stub_child(1, 30.0, "LISTENING 127.0.0.1 7001")]
        with pytest.raises(TimeoutError):
            supervisor_module.await_listening(children, startup_timeout=1.0)
        assert all(child.poll() is not None for child in children)

    def test_cold_resume_keeps_retired_placeholders(self, params, tmp_path,
                                                    monkeypatch):
        children = []
        monkeypatch.setattr(supervisor_module, "launch_server_process",
                            _stub_launcher(children, delay=0.0))
        supervisor = ClusterSupervisor(params, 2, tmp_path)
        try:
            endpoints = supervisor.start(shard_ids=[0, 2])
            assert endpoints == [("127.0.0.1", 7000), ("127.0.0.1", 7002)]
            assert supervisor.active_ids() == [0, 2]
            gap = supervisor.shards[1]
            assert gap.retired and gap.proc is None
            # add_shard and restart go through the same launch/await pair
            assert supervisor.add_shard() == (3, "127.0.0.1", 7003)
            assert supervisor.restart(2) == ("127.0.0.1", 7002)
            assert supervisor.shards[2].restarts == 1
        finally:
            supervisor.stop()
        assert len(children) == 4
        assert all(child.poll() is not None for child in children)


class TestParallelStop:
    def test_three_slow_shards_stop_in_one_deadline(self, params, tmp_path,
                                                    monkeypatch):
        children = []
        monkeypatch.setattr(supervisor_module, "launch_server_process",
                            _stub_launcher(children, delay=0.0,
                                           exit_delay=1.0))
        supervisor = ClusterSupervisor(params, 3, tmp_path)
        try:
            supervisor.start()
        finally:
            start = time.perf_counter()
            supervisor.stop()
            elapsed = time.perf_counter() - start
        # each stub takes 1 s to exit on SIGTERM: serial stop >= 3 s
        assert elapsed < 2.0, elapsed
        assert len(children) == 3
        assert all(child.returncode == 0 for child in children)

    def test_stragglers_are_killed_at_the_deadline(self):
        children = [_stub_child(0, 0.0, "LISTENING 127.0.0.1 7000",
                                exit_delay=30.0),
                    _stub_child(1, 0.0, "LISTENING 127.0.0.1 7001")]
        supervisor_module.await_listening(children)
        start = time.perf_counter()
        supervisor_module.reap_processes(children, timeout=1.0)
        assert time.perf_counter() - start < 5.0
        assert children[0].returncode == -signal.SIGKILL
        assert children[1].returncode == -signal.SIGTERM


class _Unwound(Exception):
    pass


def _unwind(signum, frame):
    raise _Unwound


class TestSigtermMidLaunch:
    def test_sigterm_between_fork_and_record_reaps_the_child(
            self, params, tmp_path, monkeypatch):
        """A Python SIGTERM handler that unwinds runs only once the child
        just forked is recorded, so the unwind reaps it."""
        children = []
        stub = _stub_launcher(children, delay=30.0)

        def launch(*args):
            proc = stub(*args)
            os.kill(os.getpid(), signal.SIGTERM)   # lands before the return
            return proc

        monkeypatch.setattr(supervisor_module, "launch_server_process",
                            launch)
        previous = signal.signal(signal.SIGTERM, _unwind)
        try:
            supervisor = ClusterSupervisor(params, 3, tmp_path)
            with pytest.raises(_Unwound):
                supervisor.start()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(children) == 1
        assert children[0].poll() is not None


def _children(pid: int):
    """Pids of the live ``repro.cli`` children of ``pid``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid and b"repro.cli" in cmdline:
            out.append(int(stat.parent.name))
    return out


def _gone(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return True
    return state[0] == "Z"


@pytest.mark.cluster
@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="needs /dev/shm")
class TestSigtermCleanup:
    def test_serve_cluster_sigterm_stops_shards_and_cleans_up(
            self, tmp_path, monkeypatch):
        # the ephemeral base directory is a mkdtemp: point it at tmp_path
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        proc, _host, _port = supervisor_module.spawn_server_process(
            "serve-cluster", None,
            ["--shards", "2", "--transport", "shm", "--protocol",
             "hashtogram", "--domain-size", "1024", "--num-users", "1000"])
        try:
            shards = _children(proc.pid)
            assert len(shards) == 2
            assert len(list(tmp_path.glob("repro-cluster-*"))) == 1
            prefix = f"repro-{proc.pid}-"
            assert any(name.startswith(prefix)
                       for name in os.listdir("/dev/shm"))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            supervisor_module.reap_processes([proc])
        assert all(_gone(pid) for pid in shards)
        assert list(tmp_path.glob("repro-cluster-*")) == []
        assert [name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)] == []


#: ``serve-cluster`` whose shards are stubs that never finish starting; each
#: stub's pid is recorded as a ``stub-<pid>`` file in the directory argv[1]
_STARTING_CLUSTER = textwrap.dedent("""\
    import subprocess, sys
    from pathlib import Path

    import repro.cluster.supervisor as supervisor_module
    from repro.cli import main

    def launch(verb="serve", params_file=None, extra_args=()):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            stdout=subprocess.PIPE, text=True)
        Path(sys.argv[1], f"stub-{proc.pid}").touch()
        return proc

    supervisor_module.launch_server_process = launch
    sys.exit(main(["serve-cluster", "--shards", "2", "--transport", "shm",
                   "--protocol", "hashtogram", "--domain-size", "1024",
                   "--num-users", "1000", "--port", "0", "--quiet"]))
""")


@pytest.mark.cluster
@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="needs /dev/shm")
class TestSigtermDuringStart:
    def test_sigterm_while_shards_start_reaps_them(self, tmp_path):
        env = dict(os.environ, TMPDIR=str(tmp_path),
                   PYTHONPATH=str(SRC) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-c", _STARTING_CLUSTER, str(tmp_path)],
            env=env)
        try:
            deadline = time.monotonic() + 30
            while (len(list(tmp_path.glob("stub-*"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            stubs = [int(path.name.split("-")[1])
                     for path in tmp_path.glob("stub-*")]
            assert len(stubs) == 2
            assert len(list(tmp_path.glob("repro-cluster-*"))) == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            supervisor_module.reap_processes([proc])
        assert all(_gone(pid) for pid in stubs)
        assert list(tmp_path.glob("repro-cluster-*")) == []
        prefix = f"repro-{proc.pid}-"
        assert [name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)] == []


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportClosure:
    def test_serving_closure_skips_analysis_layers(self):
        out = _run_python(f"""
            import json, sys
            {SERVING_CLOSURE}
            print(json.dumps(sorted(sys.modules)))
        """)
        loaded = json.loads(out)
        leaked = [name for name in loaded
                  if name.split(".")[0] == "scipy"
                  or any(name == layer or name.startswith(layer + ".")
                         for layer in SERVING_FORBIDDEN)]
        assert leaked == []

    def test_absorb_and_finalize_import_nothing_new(self, tmp_path):
        from repro.core.heavy_hitters import PrivateExpanderSketch

        domain = 1 << 12
        params = PrivateExpanderSketch(domain, 4.0).public_params(2_000,
                                                                  rng=0)
        values = np.random.default_rng(1).integers(0, domain, 2_000)
        batch = params.make_encoder().encode_batch(values, rng=2)
        (tmp_path / "params.json").write_text(json.dumps(params.to_dict()))
        (tmp_path / "reports.bin").write_bytes(encode_reports_payload(batch))
        out = _run_python(f"""
            import json, sys
            from pathlib import Path
            {SERVING_CLOSURE}
            from repro.protocol import PublicParams
            from repro.protocol.binary import decode_reports_payload

            home = Path({str(tmp_path)!r})
            params = PublicParams.from_dict(
                json.loads((home / "params.json").read_text()))
            _, batch = decode_reports_payload(
                (home / "reports.bin").read_bytes())
            before = set(sys.modules)
            aggregator = params.make_aggregator()
            aggregator.absorb_batch(batch)
            result = aggregator.finalize()
            print(json.dumps(sorted(set(sys.modules) - before)))
        """)
        assert json.loads(out) == []


class TestLazyPackageRoot:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import_and_subpackage_attributes(self):
        out = _run_python("""
            import repro
            engine = repro.engine          # a subpackage, not yet imported
            namespace = {}
            exec("from repro import *", namespace)
            missing = [n for n in repro.__all__ if n not in namespace]
            print(engine.__name__, missing, repro.__version__)
        """)
        assert out.split() == ["repro.engine", "[]", repro.__version__]

    def test_unknown_attribute_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
