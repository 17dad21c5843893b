"""Span tracing for the server, router and shard subprocesses of a traced run.

The traced benchmark run puts this directory on ``PYTHONPATH``; every
``repro.cli`` child inherits the environment (``spawn_server_process``
copies it), so Python imports this module at start-up.  When
``PERFBENCH_TRACE_DIR`` is set and the process runs ``-m repro.cli``
(other helpers, such as multiprocessing's resource tracker, are left
alone) it installs the span wrappers of
``perfbench/spans.py`` and writes the process's spans to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when the process ends: at normal
exit, or on SIGTERM (how the supervisor stops shards), after which the
signal's default action runs exactly as it would have without tracing.
Without the variable this module does nothing.
"""

import os


def _install() -> None:
    import atexit
    import importlib.util
    import signal
    import sys

    trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_spans"] = spans
    spec.loader.exec_module(spans)

    recorder = spans.SpanRecorder(os.environ.get("PERFBENCH_RUN_ID", ""),
                                  role="child")
    spans.instrument(recorder)
    written = []

    def dump() -> None:
        if written:
            return
        written.append(True)
        # the role is known only now: sys.argv is the CLI's by this point
        argv = sys.argv[1:2]
        recorder.role = argv[0] if argv else "child"
        recorder.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"))

    def on_term(signum, _frame) -> None:
        signal.signal(signum, signal.SIG_IGN)  # no re-entry mid-dump
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(dump)
    signal.signal(signal.SIGTERM, on_term)


def _is_repro_cli() -> bool:
    import sys
    argv = list(getattr(sys, "orig_argv", ()))
    return "-m" in argv and argv[argv.index("-m") + 1:][:1] == ["repro.cli"]


if os.environ.get("PERFBENCH_TRACE_DIR") and _is_repro_cli():
    _install()
