"""Span tracing of the server's layers, installed from outside the program.

:func:`install` wraps public functions of each layer module (and the two
private seams noted below) so every call records a span: name, start and
end (``perf_counter_ns``, CLOCK_MONOTONIC, comparable across processes on
one host), the span that was open on the same thread when it started
(its parent), and a small tag (the wire verb, whether a report hit its
mark, the byte length of a log frame, ...).  Spans stay in memory; the
process writes them to ``<trace dir>/spans-<pid>.json`` when it receives
``SIGUSR1``, so the benchmark can collect them before it stops or
``kill -9``s the server.

Worker processes of ``serve --workers N`` are spawned, so they start from
a fresh import; the router's ``_worker_main`` is replaced with
:func:`traced_worker_main`, which installs the same wrappers inside each
worker before running the original loop.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_serial = itertools.count(1)
_local = threading.local()
_spans: list[list[Any]] = []
_state: dict[str, Any] = {}


def _verb(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1] if len(args) > 1 else kwargs.get("verb")


def _mark_hit(args: tuple, kwargs: dict, result: Any) -> Any:
    return result[0] is None


def _drain_stats(args: tuple, kwargs: dict, result: Any) -> Any:
    return [result.changes, result.drained]


def _length(args: tuple, kwargs: dict, result: Any) -> Any:
    return len(result)


def _targets() -> list[tuple[Any, str, str, Callable[..., Any] | None]]:
    """``(owner, attribute, span name, tag function)`` for every wrapped
    function.  ``_build_context`` (a cold reasoner context) and
    ``durability._frame`` (the bytes of one log record) are private; they
    are the only places those events are visible from outside."""
    import os as os_module

    from repro.patterns import incremental as engine
    from repro.reasoner import encoding
    from repro.reasoner import incremental as reasoner
    from repro.sat import solver
    from repro.server import durability, protocol, service, wire, workers

    return [
        (wire.LocalBackend, "handle", "backend.handle", _verb),
        (workers.WorkerPool, "handle", "router.handle", _verb),
        (workers.WorkerHandle, "request", "pipe.request", None),
        (service.ValidationService, "edit", "service.edit", None),
        (service.ValidationService, "report_marked", "service.report", _mark_hit),
        (service.ValidationService, "drain", "service.drain", _drain_stats),
        (service, "report_from_engine", "validator.report", None),
        (protocol, "report_to_payload", "protocol.report_payload", None),
        (engine.IncrementalEngine, "refresh", "engine.refresh", None),
        (engine.IncrementalEngine, "resume", "engine.resume", None),
        (engine.IncrementalEngine, "suspend", "engine.suspend", None),
        (reasoner.SessionReasoner, "check", "reasoner.check", None),
        (reasoner.SessionReasoner, "_build_context", "reasoner.cold_build", None),
        (encoding.IncrementalSchemaEncoder, "sync", "encoding.sync", None),
        (solver.CdclSolver, "solve", "sat.solve", None),
        (durability.SessionLog, "append", "durability.append", None),
        (durability.SessionLog, "compact", "durability.compact", None),
        (durability.LogStore, "recover", "durability.recover", None),
        (durability, "_frame", "durability.frame", _length),
        (os_module, "fsync", "os.fsync", None),
    ]


def _wrap(function: Callable[..., Any], name: str, tag: Callable[..., Any] | None) -> Callable[..., Any]:
    clock = time.perf_counter_ns

    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        record = [next(_serial), name, clock(), 0, stack[-1] if stack else 0, None]
        stack.append(record[0])
        try:
            result = function(*args, **kwargs)
        finally:
            stack.pop()
            record[3] = clock()
            _spans.append(record)
        if tag is not None:
            record[5] = tag(args, kwargs, result)
        return result

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    return traced


def _patch(owner: Any, attribute: str, name: str, tag: Callable[..., Any] | None) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(_wrap(raw.__func__, name, tag)))
    else:
        setattr(owner, attribute, _wrap(raw, name, tag))


def dump() -> Path:
    """Write this process's spans (atomically) and return the file."""
    directory = Path(_state["dir"])
    target = directory / f"spans-{os.getpid()}.json"
    scratch = directory / f".spans-{os.getpid()}.tmp"
    body = {"pid": os.getpid(), "role": _state["role"], "spans": list(_spans)}
    scratch.write_text(json.dumps(body))
    os.replace(scratch, target)
    return target


def install(trace_dir: str | Path, role: str) -> None:
    """Wrap every layer function in this process and arm the SIGUSR1 dump."""
    _state["dir"] = str(trace_dir)
    _state["role"] = role
    os.environ[TRACE_DIR_ENV] = str(trace_dir)
    for owner, attribute, name, tag in _targets():
        _patch(owner, attribute, name, tag)
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump())
    if role == "router":
        from repro.server import workers

        workers._worker_main = traced_worker_main  # type: ignore[assignment]


def traced_worker_main(conn: Any, config: dict[str, Any]) -> None:
    """A worker process: install the tracer, then run the real loop."""
    install(os.environ[TRACE_DIR_ENV], role="worker")
    from repro.server import workers

    workers._worker_main(conn, config)
