"""The benchmark of record: open-loop wire load against ``orm-validate serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload modelers --seed 1 --seconds 20 --trace 0

One run starts the server as a subprocess with the CLI's own flags, opens
the workload's sessions, plays a seeded open-loop schedule up a ladder of
offered rates, checks every output against the oracle, crashes the server
with ``kill -9`` and times recovery.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the reference rung twice — untraced, then
under the layer tracer — and prints the per-layer metrics.  The last line
of standard output is the JSON result; the exit code is non-zero when any
operation failed or any output disagreed with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for data dirs and trace files, relative to the checkout
#: root (the server runs there too); removed at the end of a run.
WORK = Path(".perfbench_work")

#: Sender threads: at most one per core (the client is one process).
MAX_SENDERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Crash-and-recover cycles per run; ``recovery_s`` is their median.
RECOVERY_REPEATS = 5
#: Sampled /v1/check verdicts re-derived with a cold model finder.
CHECK_SAMPLES = 3
#: A rung whose queueing delay passes this many seconds has failed.
ABORT_AFTER_S = 2.0
#: Generator lateness (p99, ms) beyond which a run is marked invalid.
LATE_LIMIT_MS = 10.0


def _fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "repro").is_dir():
    _fail_early(f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from loadgen import (  # noqa: E402
    _ByteCounter,
    backlog_growing,
    percentile,
    run_rung,
    windowed_percentile,
)
from oracle import expected_report, expected_verdict, same_report  # noqa: E402
from serverctl import Server  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from repro.server.client import ServiceClient, WireTransportError  # noqa: E402
from repro.server.protocol import WireError  # noqa: E402


class Run:
    """One benchmark invocation: inputs, servers, outcomes and failures."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sessions, self.rungs = workload.plan(seed, seconds)
        self.names = [spec.name for spec in self.sessions]
        self.senders = max(1, min(MAX_SENDERS, len(os.sched_getaffinity(0))))
        # Sessions are dealt to senders round-robin in workload order.
        self.pins = [index % self.senders for index in range(len(self.sessions))]
        self.work = ROOT / WORK / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.acked = [0] * len(self.sessions)
        self.viewer_marks: dict[int, str | None] = {}

    # -- server lifecycle ------------------------------------------------

    def data_dir(self, tag: str) -> str | None:
        return str(self.work.relative_to(ROOT) / tag) if self.workload.durable else None

    def setup(self, tag: str, trace_dir: Path | None = None) -> tuple[Server, float]:
        """Start a server and bring every session to its opening state:
        open it (shipping its DSL) and run the first, cold check of each
        reasoning session.  Returns the server and the elapsed seconds."""
        began = time.perf_counter()
        server = Server(self.workload.flags(self.data_dir(tag)), trace_dir=trace_dir)
        try:
            with server.client() as client:
                for spec in self.sessions:
                    client.open(spec.name, schema=spec.dsl)
                for spec in self.sessions:
                    if spec.checks:
                        client.check(spec.name, "strong", max_domain=2)
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - began

    def setup_repeated(self) -> tuple[Server, float]:
        """``SETUP_REPEATS`` set-ups from scratch; keeps the last server."""
        durations = []
        server = None
        for index in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            tag = f"setup{index}"
            server, elapsed = self.setup(tag)
            durations.append(elapsed)
        assert server is not None
        return server, statistics.median(durations)

    # -- the ladder ------------------------------------------------------

    def play(self, server: Server, rung: int, counter: _ByteCounter | None = None) -> dict:
        outcomes, aborted, t0, t1 = run_rung(
            server.url,
            self.names,
            self.rungs[rung],
            self.pins,
            abort_after=ABORT_AFTER_S,
            viewer_marks=self.viewer_marks,
            counter=counter,
        )
        return self.evaluate(rung, outcomes, aborted, t0, t1)

    def evaluate(self, rung: int, outcomes: list, aborted: bool, t0: float, t1: float) -> dict:
        feedback, edits, checks, late = [], [], [], []
        requests = 0
        for outcome in outcomes:
            item = outcome.interaction
            self.attempted += 1
            if outcome.error is not None:
                self.failures.append(f"{self.names[item.session]} {item.kind}: {outcome.error}")
                continue
            requests += len(outcome.rtts)
            if item.edit is not None:
                self.acked[item.session] = item.edits_before + 1
            if outcome.idle:
                late.append(outcome.start - outcome.due)
            measured = self.sessions[item.session].measured
            if item.kind == "feedback" and measured:
                feedback.append((outcome.due, outcome.end - outcome.due))
            if item.edit is not None and measured:
                edits.append((outcome.due, outcome.edit_end - outcome.due))
            if item.kind == "check":
                checks.append((outcome.due, outcome.end - outcome.due))
        elapsed = max((o.end for o in outcomes if o.end is not None), default=t1) - t0
        limit = self.workload.limit_ms / 1000.0
        fb_p99 = percentile([v for _, v in feedback], 99) if feedback else float("inf")
        growing = backlog_growing(
            [o.due for o in outcomes], [o.start for o in outcomes], limit
        )
        return {
            "offered_rate": self.workload.ladder[rung],
            "rps": requests / elapsed if elapsed > 0 else 0.0,
            "feedback": feedback,
            "edits": edits,
            "checks": checks,
            "late": late,
            "outcomes": outcomes,
            "window": (t0, t1),
            "passed": not aborted and not growing and fb_p99 <= limit
            and len(outcomes) == len(self.rungs[rung]),
            "aborted": aborted,
            "growing": growing,
        }

    def ladder(self, server: Server, start: int) -> list[dict]:
        """Play rungs from ``start`` up, stopping after the first miss."""
        results = []
        for rung in range(start, len(self.rungs)):
            result = self.play(server, rung)
            results.append(result)
            if not result["passed"]:
                break
        return results

    # -- oracle ------------------------------------------------------------

    def edits_of(self, index: int, count: int) -> list:
        """The first ``count`` scheduled edits of one session."""
        edits = []
        for rung in self.rungs:
            for item in rung:
                if item.session == index and item.edit is not None and len(edits) < count:
                    edits.append(item.edit)
        return edits

    def final_reports(self, server: Server) -> dict[str, dict]:
        """Every session's current report; a session that cannot answer is
        left out (and fails its comparison)."""
        reports = {}
        with server.client() as client:
            for name in self.names:
                try:
                    reports[name] = client.report(name)
                except (WireError, WireTransportError) as error:
                    self.failures.append(f"{name}: no report ({error})")
        return reports

    def verify_reports(self, reports: dict[str, dict]) -> None:
        for index, spec in enumerate(self.sessions):
            self.attempted += 1
            expected = expected_report(spec.dsl, self.edits_of(index, self.acked[index]))
            if spec.name in reports and not same_report(reports[spec.name], expected):
                self.failures.append(f"{spec.name}: final report differs from reference_validate")

    def verify_checks(self, results: list[dict]) -> None:
        answered = [
            outcome
            for result in results
            for outcome in result["outcomes"]
            if outcome.interaction.kind == "check" and outcome.error is None
        ]
        sampler = random.Random(self.seed)
        for outcome in sampler.sample(answered, min(CHECK_SAMPLES, len(answered))):
            self.attempted += 1
            item = outcome.interaction
            spec = self.sessions[item.session]
            want = expected_verdict(spec.dsl, self.edits_of(item.session, item.edits_before))
            if outcome.status != want:
                self.failures.append(
                    f"{spec.name}: check said {outcome.status}, cold model finder {want}"
                )

    # -- crash and recovery ----------------------------------------------

    def recover(self, server: Server, before: dict[str, dict], tag: str) -> tuple[Server, float]:
        """``kill -9`` the deployment; time until every session serves its
        pre-crash report again.  A durable deployment recovers from its
        log; an in-process one has nothing to recover from, so the client
        re-opens each session and replays its acknowledged edits."""
        began = time.perf_counter()
        server.kill()
        restarted = Server(self.workload.flags(self.data_dir(tag)), trace_dir=server.trace_dir)
        if not self.workload.durable:
            self.replay_sessions(restarted)
        # Log recovery runs before the restarted router listens, and the
        # client-side replay has finished here: one pass decides.
        with restarted.client() as client:
            for name in self.names:
                self.attempted += 1
                try:
                    recovered = same_report(client.report(name), before.get(name, {}))
                except (WireError, WireTransportError) as error:
                    self.failures.append(f"{name}: not recovered after restart ({error})")
                    continue
                if not recovered:
                    self.failures.append(f"{name}: recovered report differs from the pre-crash one")
        return restarted, time.perf_counter() - began

    def replay_sessions(self, server: Server) -> None:
        def replay(indices: list[int]) -> None:
            with ServiceClient(server.url, timeout=60.0) as client:
                for index in indices:
                    spec = self.sessions[index]
                    client.open(spec.name, schema=spec.dsl)
                    for verb, args, kwargs in self.edits_of(index, self.acked[index]):
                        client.edit(spec.name, verb, *args, **kwargs)

        threads = [
            threading.Thread(target=replay, args=(list(range(k, len(self.sessions), self.senders)),))
            for k in range(self.senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass


class PeakRss(threading.Thread):
    """Samples the server group's summed RSS until stopped.

    The group's processes are listed once; each sample then reads only
    their ``/proc/<pid>/status``, so the sampler costs the generator
    process (whose threads send the load) next to nothing."""

    def __init__(self, server: Server, period: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.pids = server.group_pids()
        self.period = period
        self.peak = 0.0
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.is_set():
            self.peak = max(self.peak, self.server.rss_mb(self.pids))
            self.stop_event.wait(self.period)

    def finish(self) -> float:
        self.stop_event.set()
        self.join()
        return max(self.peak, self.server.rss_mb(self.pids))


def filesystem_of(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def cpu_times() -> list[int]:
    """The host's aggregate CPU times (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def validity_record(run: Run, late_ms: float, flags: list[str], cpu: list[int]) -> dict:
    spent = [after - before for before, after in zip(cpu, cpu_times())]
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "senders": run.senders,
        "python": platform.python_version(),
        "server_flags": flags,
        "data_dir_fs": filesystem_of(ROOT / WORK) if run.workload.durable else None,
        "fsync_policy": (
            "fsync per acknowledged open/edit before the ack (data files)"
            if run.workload.durable
            else "none: in-process, no durable log"
        ),
        # Time the hypervisor ran something else while this guest wanted
        # the CPU; measured values shift with it, so it travels with them.
        "host_steal_pct": 100.0 * spent[7] / sum(spent) if len(spent) > 7 and sum(spent) else 0.0,
        "generator_late_p99_ms": late_ms,
        "valid": late_ms <= LATE_LIMIT_MS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_e2e(run: Run) -> dict:
    """Set-ups, the reference rung, a crash and recovery from the state it
    left (a fixed amount of work per seed), then the higher rungs."""
    server, setup_s = run.setup_repeated()
    try:
        sampler = PeakRss(server)
        sampler.start()
        reference = run.play(server, 0)
        rss = sampler.finish()
        before = run.final_reports(server)
        recoveries = []
        for _ in range(RECOVERY_REPEATS):
            server, elapsed = run.recover(server, before, "setup%d" % (SETUP_REPEATS - 1))
            recoveries.append(elapsed)
        results = [reference]
        if reference["passed"]:
            results += run.ladder(server, 1)
        reports = run.final_reports(server)
    finally:
        server.stop()
    run.verify_reports(reports)
    run.verify_checks(results)
    passing = [result for result in results if result["passed"]]
    late = [value for result in results for value in result["late"]]
    late_ms = percentile(late, 99) * 1000 if late else 0.0

    def ms(samples: list[tuple[float, float]], q: float, need: int) -> float:
        # p50 and p99 windows hold >= 1000 samples, check windows >= 200.
        return windowed_percentile(samples, q, need) * 1000 if samples else float("nan")

    metrics = {
        "setup_s": metric(setup_s, "s"),
        "feedback_p50_ms": metric(ms(reference["feedback"], 50, 1000), "ms"),
        "edit_p50_ms": metric(ms(reference["edits"], 50, 1000), "ms"),
        "check_p50_ms": metric(ms(reference["checks"], 50, 200), "ms"),
        "sustained_rps": metric(passing[-1]["rps"] if passing else 0.0, "req/s"),
        "recovery_s": metric(statistics.median(recoveries), "s"),
        "server_rss_mb": metric(rss, "MiB"),
    }
    # Printed with every run but not gated: on a shared 2-vCPU guest they
    # follow the host's CPU steal more than the program (see README.md).
    tails = {
        "feedback_p99_ms": metric(ms(reference["feedback"], 99, 1000), "ms"),
        "edit_p99_ms": metric(ms(reference["edits"], 99, 1000), "ms"),
        "check_p95_ms": metric(ms(reference["checks"], 95, 200), "ms"),
    }
    ladder = [
        {
            "offered_rate": r["offered_rate"],
            "rps": round(r["rps"], 1),
            "feedback_p99_ms": round(percentile([v for _, v in r["feedback"]], 99) * 1000, 2)
            if r["feedback"]
            else None,
            "samples": len(r["feedback"]),
            "checks": len(r["checks"]),
            "passed": r["passed"],
            "aborted": r["aborted"],
            "backlog_growing": r["growing"],
        }
        for r in results
    ]
    return {
        "metrics": metrics,
        "tails": tails,
        "ladder": ladder,
        "late_ms": late_ms,
        "flags": server.flags,
    }


def run_traced(run: Run) -> dict:
    """Reference rung untraced, then the same inputs under the tracer."""
    plain, _ = run.setup("plain")
    try:
        untraced = run.play(plain, 0)
    finally:
        plain.stop()
    run.acked = [0] * len(run.sessions)
    run.viewer_marks.clear()
    trace_dir = run.work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    counter = _ByteCounter()
    counter.install()
    server, _ = run.setup("traced", trace_dir=trace_dir)
    try:
        before = server.healthz()
        traced = run.play(server, 0, counter)
        after = server.healthz()
        reports = run.final_reports(server)
        span_files = layers.collect(server, trace_dir)
        recover_files: list[dict] = []
        if run.workload.durable:
            server, _ = run.recover(server, reports, "traced")
            recover_files = layers.collect(server, trace_dir)
    finally:
        server.stop()
    run.verify_reports(reports)
    run.verify_checks([untraced, traced])
    values, notes = layers.per_layer(
        run.workload, traced, untraced, before, after, span_files, recover_files
    )
    return {
        "metrics": values,
        "notes": notes,
        "late_ms": values["bench.late_p99_ms"]["value"],
        "flags": server.flags,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpu = cpu_times()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        outcome = run_traced(run) if args.trace else run_e2e(run)
    finally:
        run.cleanup()
    record = validity_record(run, outcome["late_ms"], outcome["flags"], cpu)
    failed = len(run.failures)
    for name, item in outcome["metrics"].items():
        print(f"{name:32s} {item['value']:14.4f} {item['unit']}")
    print(f"{'failed_ratio':32s} {failed / max(1, run.attempted):14.4f} 1")
    for name, item in outcome.get("tails", {}).items():
        print(f"tail {name:27s} {item['value']:14.4f} {item['unit']}")
    for rung in outcome.get("ladder", []):
        print("rung " + json.dumps(rung))
    for note in outcome.get("notes", []):
        print("note " + note)
    print("record " + json.dumps(record))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not record["valid"]:
        print("perfbench: generator fell behind; this run is invalid", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
