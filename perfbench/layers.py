"""Per-layer metrics of a traced run, from the spans :mod:`tracer` wrote.

Times are means per call in milliseconds over the spans that started
inside the traced rung's window; ``workers.router_ms`` is self time (the
router's ``handle`` span minus the child spans it covers).  A layer the
workload does not cross reports 0 and a note saying why; the router and
log layers are reported only by a multi-process deployment.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from typing import Any

from loadgen import percentile


def collect(server: Any, trace_dir: Path, timeout: float = 20.0) -> list[dict]:
    """Ask the router and each worker to write their spans; load them."""
    health = server.healthz()
    pids = [server.proc.pid] + list(health.get("workers", {}).get("pids", []))
    asked = time.time()
    server.signal_pids(pids, signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    files = [trace_dir / f"spans-{pid}.json" for pid in pids]
    while time.monotonic() < deadline:
        if all(path.exists() and path.stat().st_mtime >= asked - 1 for path in files):
            break
        time.sleep(0.05)
    dumps = []
    for path in files:
        if path.exists():
            dumps.append(json.loads(path.read_text()))
            os.remove(path)
    return dumps


def _spans(dumps: list[dict], window: tuple[float, float] | None, role: str | None = None) -> list[list]:
    spans = []
    for dump in dumps:
        if role is not None and dump["role"] != role:
            continue
        for span in dump["spans"]:
            if window is None or window[0] <= span[2] / 1e9 <= window[1]:
                spans.append(span)
    return spans


def _mean_ms(spans: list[list], name: str, tag: Any = None) -> tuple[float, int]:
    chosen = [s for s in spans if s[1] == name and (tag is None or s[5] == tag)]
    if not chosen:
        return 0.0, 0
    return sum(s[3] - s[2] for s in chosen) / len(chosen) / 1e6, len(chosen)


def _self_ms(spans: list[list], name: str) -> float:
    """Mean self time of ``name`` spans: duration minus direct children."""
    children: dict[int, int] = {}
    for span in spans:
        children[span[4]] = children.get(span[4], 0) + span[3] - span[2]
    chosen = [s for s in spans if s[1] == name]
    if not chosen:
        return 0.0
    return sum(s[3] - s[2] - children.get(s[0], 0) for s in chosen) / len(chosen) / 1e6


def per_layer(
    workload: Any,
    traced: dict,
    untraced: dict,
    before: dict,
    after: dict,
    dumps: list[dict],
    recover_dumps: list[dict],
) -> tuple[dict[str, dict], list[str]]:
    window = traced["window"]
    spans = _spans(dumps, window)
    router = _spans(dumps, window, role="router")
    outcomes = [o for o in traced["outcomes"] if o.error is None]
    notes: list[str] = []
    values: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        values[name] = {"value": value, "unit": unit}

    # repro.server.wire: the backend call the HTTP front makes per request.
    front = "router.handle" if workload.durable else "backend.handle"
    handle_total = handle_count = 0.0
    for verb in ("edit", "report", "check"):
        mean, count = _mean_ms(router, front, verb)
        put(f"wire.handle_ms.{verb}", mean, "ms")
        handle_total += mean * count
        handle_count += count
    rtts = [rtt for o in outcomes for verb, rtt in o.rtts if verb in ("edit", "report", "check")]
    overhead = (sum(rtts) * 1000 - handle_total) / len(rtts) if rtts else 0.0
    put("wire.overhead_ms", overhead, "ms")

    # repro.server.client: bytes of each report response.
    sizes = [o.report_bytes for o in outcomes if o.interaction.kind == "feedback"]
    put("client.report_kb", sum(sizes) / len(sizes) / 1024 if sizes else 0.0, "KiB")

    # repro.server.service
    put("service.edit_ms", _mean_ms(spans, "service.edit")[0], "ms")
    put("service.report_ms", _mean_ms(spans, "service.report")[0], "ms")
    put("service.drain_ms", _mean_ms(spans, "service.drain")[0], "ms")
    drains = [s for s in spans if s[1] == "service.drain" and s[5] and s[5][1] > 0]
    put(
        "service.changes_per_drain",
        sum(s[5][0] for s in drains) / len(drains) if drains else 0.0,
        "count",
    )
    reports = [s for s in spans if s[1] == "service.report"]
    put(
        "service.mark_hit_ratio",
        sum(1 for s in reports if s[5]) / len(reports) if reports else 0.0,
        "1",
    )
    stats_before, stats_after = before.get("stats", {}), after.get("stats", {})
    for counter in ("resumes", "evictions", "rebuilds"):
        put(f"service.{counter}", stats_after.get(counter, 0) - stats_before.get(counter, 0), "count")

    # repro.patterns.incremental
    put("engine.refresh_ms", _mean_ms(spans, "engine.refresh")[0], "ms")
    put("engine.resume_ms", _mean_ms(spans, "engine.resume")[0], "ms")
    put("engine.suspend_ms", _mean_ms(spans, "engine.suspend")[0], "ms")
    live = stats_after.get("live_engines", 0)
    put("engine.sites", stats_after.get("live_sites", 0) / live if live else 0.0, "count")

    # repro.tool.validator / repro.server.protocol
    put("validator.report_ms", _mean_ms(spans, "validator.report")[0], "ms")
    put("protocol.report_payload_ms", _mean_ms(spans, "protocol.report_payload")[0], "ms")

    # repro.reasoner.incremental / .encoding / repro.sat.solver
    checks = [o for o in outcomes if o.interaction.kind == "check"]
    put("reasoner.check_ms", _mean_ms(spans, "reasoner.check")[0], "ms")
    put("reasoner.cold_rebuilds", sum(1 for s in spans if s[1] == "reasoner.cold_build"), "count")
    put("encoding.sync_ms", _mean_ms(spans, "encoding.sync")[0], "ms")
    put("sat.solve_ms", _mean_ms(spans, "sat.solve")[0], "ms")
    put("sat.conflicts_per_check", sum(o.conflicts for o in checks) / len(checks) if checks else 0.0, "count")
    put("sat.learned_kept", sum(o.kept for o in checks) / len(checks) if checks else 0.0, "count")

    if workload.durable:
        # repro.server.workers and repro.server.durability, router side.
        put("workers.pipe_ms", _mean_ms(router, "pipe.request")[0], "ms")
        put("workers.router_ms", _self_ms(router, "router.handle"), "ms")
        edits = sum(1 for o in outcomes if o.interaction.edit is not None)
        put("durability.append_ms", _mean_ms(router, "durability.append")[0], "ms")
        put(
            "durability.fsyncs_per_edit",
            sum(1 for s in router if s[1] == "os.fsync") / edits if edits else 0.0,
            "count",
        )
        put(
            "durability.bytes_per_edit",
            sum(s[5] for s in router if s[1] == "durability.frame") / edits if edits else 0.0,
            "B",
        )
        put("durability.compact_ms", _mean_ms(router, "durability.compact")[0], "ms")
        recovered = _spans(recover_dumps, None, "router")
        put("durability.recover_ms", _mean_ms(recovered, "durability.recover")[0], "ms")

    # the generator itself
    late = traced["late"]
    put("bench.late_p99_ms", percentile(late, 99) * 1000 if late else 0.0, "ms")
    base = percentile([v for _, v in untraced["feedback"]], 50) if untraced["feedback"] else 0.0
    with_tracing = percentile([v for _, v in traced["feedback"]], 50) if traced["feedback"] else 0.0
    put("bench.tracing_overhead_pct", 100.0 * (with_tracing - base) / base if base else 0.0, "%")

    if workload.durable:
        if not any(d["role"] == "worker" for d in dumps):
            notes.append("worker spans unavailable: service/engine/reasoner layers are router-side only")
    else:
        notes.append("workers.* and durability.* not reported: in-process deployment, no router or log")
    if not checks:
        notes.append("reasoner.* and sat.* are 0: this workload issues no /v1/check")
    return values, notes
