"""Shard process supervision for the sharded serving tier.

A cluster (``docs/architecture.md``) is one router process in front of N
*shard* servers, where every shard is a complete, unmodified
:class:`~repro.server.service.AggregationServer` — same frame protocol, same
snapshot store, same exact-integer aggregator state.  This module owns the
process-management half of that picture:

* :func:`spawn_server_process` starts one ``python -m repro.cli`` server
  subprocess (``serve`` or ``serve-cluster``) and blocks until its
  parse-friendly ``LISTENING host port`` readiness line appears — the same
  contract ``repro.cli load-test`` and the benchmarks rely on.  It is two
  steps, :func:`launch_server_process` (the ``Popen``) and
  :func:`await_listening` (the readiness line), which also serve many
  children at once under one deadline.  :func:`spawned_server` wraps it
  for the drivers that start a server from a parameters object: it writes
  the parameters file and tears the child down on the way out.
* :class:`ClusterSupervisor` spawns the N shards of one cluster — all
  launched before any is awaited, so they start up in parallel (and
  ``serve-cluster`` launches them before it loads its own layers) — each with
  its own snapshot directory under a shared base directory, polls them for
  liveness, and — the crash-recovery half of the router's failure story —
  **restarts a dead shard from its newest snapshot**.  The router then
  replays its journal of unacknowledged frames, so the revived shard
  converges to exactly the state it would have had without the crash (see
  :mod:`repro.cluster.router`).

The supervisor is deliberately synchronous (plain ``subprocess``): restarts
are rare and take a server start-up, so the router calls it through
``run_in_executor`` rather than complicating shard management with asyncio.
It imports only the standard library at load time (lint rule RPL6), so a
process can launch shards before it has loaded numpy or any protocol layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["ClusterSupervisor", "ShardHandle", "SpawnedServer",
           "await_listening", "launch_server_process", "reap_processes",
           "spawn_server_process", "spawned_server"]


#: how long a spawned server may take to print its ``LISTENING`` line
STARTUP_TIMEOUT = 30.0
#: how long a server that acknowledged ``shutdown`` may take to exit
SHUTDOWN_GRACE = 30.0


def launch_server_process(
    verb: str = "serve",
    params_file: Optional[Union[str, Path]] = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Start a ``repro.cli`` server subprocess without waiting for it.

    The child gets ``PYTHONPATH`` pointing at this package's source tree, so
    it works both installed and from a checkout; it binds port 0 and
    announces the actual port on its ``LISTENING`` line, which
    :func:`await_listening` reads.
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.cli", verb]
    if params_file is not None:
        argv += ["--params-file", str(params_file)]
    argv += ["--host", "127.0.0.1", "--port", "0", "--quiet", *extra_args]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)


def await_listening(
    procs: Sequence[subprocess.Popen],
    startup_timeout: float = STARTUP_TIMEOUT,
) -> List[Tuple[str, int]]:
    """Wait for every launched server's ``LISTENING`` line, in launch order.

    All children start up concurrently under one deadline of
    ``startup_timeout`` seconds: this watches every stdout pipe with one
    ``select``, so N servers cost about one start-up, not N.  If any child
    misses the deadline (``TimeoutError``) or prints anything else first
    (``RuntimeError`` carrying the line), every child in ``procs`` is
    reaped before the error propagates.
    """
    endpoints: Dict[int, Tuple[str, int]] = {}
    pending = {proc.stdout: index for index, proc in enumerate(procs)}
    deadline = time.monotonic() + startup_timeout
    try:
        while pending:
            remaining = deadline - time.monotonic()
            ready = (select.select(list(pending), [], [], remaining)[0]
                     if remaining > 0 else [])
            if not ready:
                raise TimeoutError(f"server did not print its LISTENING "
                                   f"line within {startup_timeout}s")
            for stream in ready:
                index = pending.pop(stream)
                line = stream.readline()
                if not line.startswith("LISTENING "):
                    raise RuntimeError(
                        f"server failed to start (got {line!r})")
                _, host, port = line.split()
                endpoints[index] = (host, int(port))
    except BaseException:
        reap_processes(procs)
        raise
    return [endpoints[index] for index in range(len(procs))]


def spawn_server_process(
    verb: str = "serve",
    params_file: Optional[Union[str, Path]] = None,
    extra_args: Sequence[str] = (),
    startup_timeout: float = STARTUP_TIMEOUT,
) -> Tuple[subprocess.Popen, str, int]:
    """Start one ``repro.cli`` server subprocess; returns ``(proc, host, port)``.

    :func:`launch_server_process` then :func:`await_listening`: blocks at
    most ``startup_timeout`` seconds for the ``LISTENING`` line (a wedged
    child is reaped and ``TimeoutError`` raised); on any other first line
    the child is reaped and a ``RuntimeError`` carries the line.
    """
    proc = launch_server_process(verb, params_file, extra_args)
    [(host, port)] = await_listening([proc], startup_timeout)
    return proc, host, port


@dataclass
class SpawnedServer:
    """A server child of :func:`spawned_server` and its TCP endpoint."""

    proc: subprocess.Popen
    host: str
    port: int
    #: set once the server acknowledged a ``shutdown`` frame: it is then
    #: exiting on its own and gets :data:`SHUTDOWN_GRACE` before any signal
    stopping: bool = False


@contextlib.contextmanager
def spawned_server(params, verb: str = "serve",
                   extra_args: Sequence[str] = ()) -> Iterator[SpawnedServer]:
    """Run one ``repro.cli`` server started from ``params`` for a block.

    ``params`` is any public-parameters object (its ``to_dict()`` payload
    becomes the child's ``--params-file``); ``verb`` and ``extra_args`` are
    as for :func:`spawn_server_process`.  On the way out a child whose
    handle is marked :attr:`~SpawnedServer.stopping` is first given
    :data:`SHUTDOWN_GRACE` to exit by itself (``serve-cluster`` still stops
    its shards and removes its ephemeral base directory after the
    acknowledgement, and a ``SIGTERM`` would race that cleanup); whatever
    is still alive then is reaped (:func:`reap_processes`).
    """
    with tempfile.NamedTemporaryFile("w", suffix="-params.json",
                                     delete=False) as handle:
        json.dump(params.to_dict(), handle)
    try:
        proc, host, port = spawn_server_process(verb, handle.name,
                                                extra_args)
    finally:
        # The LISTENING line is printed after the child loaded the
        # parameters, so the file is safe to remove on every path.
        os.unlink(handle.name)
    server = SpawnedServer(proc, host, port)
    try:
        yield server
    finally:
        if server.stopping:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=SHUTDOWN_GRACE)
        reap_processes([proc])


@contextlib.contextmanager
def _sigterm_held():
    """Hold a Python-level ``SIGTERM`` handler's call until the block ends.

    A handler that unwinds (``serve-cluster`` raises ``SystemExit`` while
    its shards start) must not land between a child's fork and the
    supervisor recording it, or that child outlives the unwind.  A signal
    caught inside the block reaches the handler when the block ends.  Off
    the main thread (where no Python handler runs) or without a Python
    handler this does nothing.
    """
    handler = signal.getsignal(signal.SIGTERM)
    if (not callable(handler)
            or threading.current_thread() is not threading.main_thread()):
        yield
        return
    caught = []
    signal.signal(signal.SIGTERM, lambda signum, frame: caught.append(frame))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, handler)
        if caught:
            handler(signal.SIGTERM, caught[0])


def reap_processes(procs: Sequence[subprocess.Popen],
                   timeout: float = 10.0) -> None:
    """Stop server children gracefully (``SIGTERM``) and wait for all.

    Every child is signalled before any is awaited, so N children stop in
    about the time of the slowest one; they share one deadline of
    ``timeout`` seconds, after which the stragglers are killed.  A stopped
    (``SIGSTOP``) child never handles ``SIGTERM``, so it is thawed first.
    """
    live = [proc for proc in procs if proc.poll() is None]
    for proc in live:
        try:
            proc.send_signal(signal.SIGCONT)
        except OSError:  # pragma: no cover - raced with the child's exit
            pass
        proc.terminate()
    deadline = time.monotonic() + timeout
    for proc in live:
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for proc in procs:
        if proc.stdout is not None:
            proc.stdout.close()


@dataclass
class ShardHandle:
    """One supervised shard: its subprocess, endpoint, and snapshot home.

    A *retired* handle is the tombstone of a drained shard: its process is
    reaped and its slot in :attr:`ClusterSupervisor.shards` is kept so
    shard ids stay stable for the life of the cluster (ids are never
    reused — the shard map and the journals refer to them by id).  On a
    cold resume of a previously grown-and-drained cluster the handle may
    be a pure placeholder with no process at all (``proc is None``).
    """

    index: int
    snapshot_dir: Path
    proc: Optional[subprocess.Popen]
    host: str
    port: int
    restarts: int = 0
    retired: bool = False

    @property
    def alive(self) -> bool:
        return (not self.retired and self.proc is not None
                and self.proc.poll() is None)


class ClusterSupervisor:
    """Spawn, monitor, and snapshot-restart the N shard servers of a cluster.

    Parameters
    ----------
    params:
        Public parameters every shard serves, or the bytes of their JSON
        file (``PublicParams.to_dict``), which are copied verbatim.  They
        are written once to ``base_dir/params.json``; restarts without a
        usable snapshot reuse it, so a shard always comes back with the
        exact same parameters.
    num_shards:
        Number of shard servers.
    base_dir:
        Home of the cluster on disk: the shared params file plus one
        ``shard-K`` snapshot directory per shard.
    window:
        Passed through to every shard's ``serve`` invocation.
    transport:
        ``"tcp"`` (default) or ``"shm"``.  With ``"shm"`` every spawned
        shard *additionally* binds a same-host shared-memory accept
        endpoint (:mod:`repro.transport`) under a supervisor-chosen ring
        name — :meth:`shm_name` — which the router dials for its
        shard links instead of TCP loopback.  The TCP endpoint (and its
        ``LISTENING`` readiness line) is kept either way.
    """

    #: distinguishes concurrent supervisors inside one process, so their
    #: shm control-segment names can never collide
    _instances = 0

    def __init__(
        self,
        params,
        num_shards: int,
        base_dir: Union[str, Path],
        *,
        window: Optional[int] = None,
        transport: str = "tcp",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if transport not in ("tcp", "shm"):
            raise ValueError(f"transport must be 'tcp' or 'shm', "
                             f"got {transport!r}")
        self.num_shards = int(num_shards)
        self.base_dir = Path(base_dir)
        self.window = window
        self.transport = transport
        ClusterSupervisor._instances += 1
        #: shm ring-name prefix: unique per (process, supervisor) so stale
        #: segments from another run can never be dialed by mistake
        self._shm_prefix = (f"repro-{os.getpid()}"
                            f"-c{ClusterSupervisor._instances}")
        self.shards: List[ShardHandle] = []
        #: every child ever launched, recorded as it forks: :meth:`stop`
        #: reaps them all, also those of a start that unwound before it
        #: recorded its shards
        self._launched: List[subprocess.Popen] = []
        #: ids and processes :meth:`launch` started, until
        #: :meth:`await_started` records them
        self._starting: Optional[Tuple[List[int],
                                       List[subprocess.Popen]]] = None
        self.base_dir.mkdir(parents=True, exist_ok=True)
        self.params_file = self.base_dir / "params.json"
        self.params_file.write_bytes(
            params if isinstance(params, bytes)
            else json.dumps(params.to_dict()).encode())

    def shm_name(self, index: int) -> Optional[str]:
        """Current shm control-segment name of one shard (``None`` on tcp).

        The name carries the shard's restart generation, so a restarted
        shard binds a *fresh* segment and the router can never dial the
        leaked ring of its dead predecessor.
        """
        if self.transport != "shm":
            return None
        restarts = (self.shards[index].restarts
                    if index < len(self.shards) else 0)
        return f"{self._shm_prefix}-s{index}g{restarts}"

    def _serve_args(self, index: int, shard_dir: Path) -> List[str]:
        args = ["--snapshot-dir", str(shard_dir)]
        if self.window is not None:
            args += ["--window", str(self.window)]
        if self.transport == "shm":
            args += ["--transport", "shm",
                     "--shm-name", str(self.shm_name(index))]
        return args

    # ----- lifecycle ------------------------------------------------------------------

    def _argv(self, index: int) -> Tuple[str, Optional[Path], List[str]]:
        """``launch_server_process`` arguments of one shard: restore its
        newest *valid* snapshot, or start fresh from the params file.

        Corrupt snapshot files are walked past, never restored
        (:meth:`SnapshotStore.latest_valid`).  A shard directory that does
        not exist yet has nothing to restore, so a fresh cluster launches
        without loading the snapshot layer (and numpy).
        """
        shard_dir = self.base_dir / f"shard-{index}"
        args = self._serve_args(index, shard_dir)
        if shard_dir.is_dir():
            from repro.server.snapshot import SnapshotStore

            latest = SnapshotStore(shard_dir).latest_valid()
            if latest is not None:
                return "serve", None, ["--restore", str(latest), *args]
        return "serve", self.params_file, args

    def _launch(self, indices: Sequence[int]) -> List[subprocess.Popen]:
        """Launch shard servers without waiting for any (the first half of
        a spawn); if a launch fails, the shards already launched are
        reaped.  A fresh shard starts empty; on a restart (or a cold
        cluster resume) the shard comes back at its last intact checkpoint
        (:meth:`_argv`)."""
        procs: List[subprocess.Popen] = []
        try:
            for index in indices:
                argv = self._argv(index)
                with _sigterm_held():
                    procs.append(launch_server_process(*argv))
                    self._launched.append(procs[-1])
        except BaseException:
            reap_processes(procs)
            raise
        return procs

    @staticmethod
    def _listening(procs: Sequence[subprocess.Popen],
                   ) -> List[Tuple[subprocess.Popen, str, int]]:
        """Wait for launched shards together (the second half of a spawn,
        :func:`await_listening`: if one fails, all of them are reaped)."""
        return [(proc, host, port)
                for proc, (host, port) in zip(procs, await_listening(procs))]

    def launch(self, shard_ids: Optional[Sequence[int]] = None) -> None:
        """The first half of :meth:`start`: launch the shards, wait for none.

        ``serve-cluster`` calls it before it imports the router and the
        protocol layers, so the shards start up while it does;
        :meth:`await_started` is the second half.
        """
        if self.shards or self._starting is not None:
            raise RuntimeError("supervisor already started")
        if shard_ids is None:
            live = list(range(self.num_shards))
        else:
            live = sorted(int(i) for i in shard_ids)
            if not live:
                raise ValueError("shard_ids must name at least one shard")
        self._starting = (live, self._launch(live))

    def await_started(self) -> List[Tuple[str, int]]:
        """The second half of :meth:`start`: wait for every shard
        :meth:`launch` started and record its handle; returns the live
        ``(host, port)`` endpoints."""
        if self._starting is None:
            raise RuntimeError("supervisor not launched")
        live, procs = self._starting
        self._starting = None
        spawned = dict(zip(live, self._listening(procs)))
        for index in range(max(live) + 1):
            shard_dir = self.base_dir / f"shard-{index}"
            if index in spawned:
                proc, host, port = spawned[index]
                handle = ShardHandle(index=index, snapshot_dir=shard_dir,
                                     proc=proc, host=host, port=port)
            else:
                handle = ShardHandle(index=index, snapshot_dir=shard_dir,
                                     proc=None, host="", port=0, retired=True)
            self.shards.append(handle)
        return self.endpoints()

    def start(self, shard_ids: Optional[Sequence[int]] = None,
              ) -> List[Tuple[str, int]]:
        """Spawn every shard; returns the live ``(host, port)`` endpoints.

        :meth:`launch` then :meth:`await_started`.  Without ``shard_ids``
        this is the fresh-cluster path: shards ``0..num_shards-1``.  With
        ``shard_ids`` (a cold resume from a persisted shard map, possibly
        with drained gaps) only the named ids get processes; the gaps
        become retired placeholder handles so positional id lookups keep
        working.
        """
        self.launch(shard_ids)
        return self.await_started()

    def add_shard(self) -> Tuple[int, str, int]:
        """Spawn one additional shard; returns ``(shard_id, host, port)``.

        The new shard takes the next never-used id (ids of drained shards
        are not recycled) and starts with an empty aggregator — the
        router's shard map guarantees it only ever receives traffic for
        epochs after its activation cut.
        """
        if not self.shards:
            raise RuntimeError("supervisor not started")
        index = len(self.shards)
        shard_dir = self.base_dir / f"shard-{index}"
        [(proc, host, port)] = self._listening(self._launch([index]))
        self.shards.append(ShardHandle(index=index, snapshot_dir=shard_dir,
                                       proc=proc, host=host, port=port))
        return index, host, port

    def retire(self, index: int) -> None:
        """Reap a drained shard's process and tombstone its handle.

        Idempotent — retiring a retired shard is a no-op, which is what a
        crash-resumed drain needs.
        """
        shard = self.shards[index]
        if not shard.retired:
            self._reap(shard)
            shard.retired = True

    def endpoints(self) -> List[Tuple[str, int]]:
        """Current ``(host, port)`` of every live shard, in shard order."""
        return [(shard.host, shard.port) for shard in self.shards
                if not shard.retired]

    def endpoint_of(self, index: int) -> Tuple[str, int]:
        """Current ``(host, port)`` of one shard by id."""
        shard = self.shards[index]
        if shard.retired:
            raise ValueError(f"shard {index} is retired")
        return shard.host, shard.port

    def active_ids(self) -> List[int]:
        """Ids of every non-retired shard, ascending."""
        return [shard.index for shard in self.shards if not shard.retired]

    def poll(self) -> List[int]:
        """Indices of live shards whose process has exited."""
        return [shard.index for shard in self.shards
                if not shard.retired and not shard.alive]

    def restart(self, index: int) -> Tuple[str, int]:
        """Restart one shard from its newest valid snapshot (fresh if none).

        The dead (or wedged) process is reaped first; the replacement
        restores the newest *intact* snapshot in the shard's own directory
        — a corrupt newest checkpoint falls back to the one before it — so
        its state is exactly the last verified snapshot barrier and the
        router's journal replay covers everything since.
        """
        shard = self.shards[index]
        if shard.retired:
            raise ValueError(f"shard {index} is retired")
        self._reap(shard)
        # Bump the generation *before* spawning: on shm the replacement
        # must bind a fresh ring name, never its dead predecessor's.
        shard.restarts += 1
        [(proc, host, port)] = self._listening(self._launch([index]))
        shard.proc, shard.host, shard.port = proc, host, port
        return host, port

    def kill(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to one shard (the chaos hook used by the tests).

        Only fatal signals are awaited; a ``SIGSTOP`` leaves the process
        alive-but-frozen by design (waiting on it would block forever), to
        be thawed by :meth:`resume` or escalated to :meth:`restart`.
        """
        shard = self.shards[index]
        if shard.alive:
            shard.proc.send_signal(sig)
            if sig in (signal.SIGKILL, signal.SIGTERM, signal.SIGINT):
                shard.proc.wait(timeout=10)

    def resume(self, index: int) -> None:
        """SIGCONT one shard (undo a :meth:`kill` with ``SIGSTOP``)."""
        shard = self.shards[index]
        if shard.alive:
            shard.proc.send_signal(signal.SIGCONT)

    def stop(self) -> None:
        """Terminate every launched shard at once, then reap them under
        one deadline (:func:`reap_processes`)."""
        reap_processes(self._launched)

    @staticmethod
    def _reap(shard: ShardHandle) -> None:
        if shard.proc is not None:
            reap_processes([shard.proc])

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
