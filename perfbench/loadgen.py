"""The open-loop load generator and its arithmetic.

A modeler is an independent user, so requests arrive on a schedule that
does not wait for the server: each *interaction* has a due time on a
constant-rate schedule (the seed picks which session does what), and its
latency counts from that due time, so a stall delays — and is charged
to — everything queued behind it.
Sessions are pinned to one of at most ``nproc`` sender threads, each with
its own keep-alive :class:`~repro.server.client.ServiceClient`, so every
session's edits stay in order.

Interaction kinds:

``feedback``  an edit followed by the report that reflects it (the
              modeler's edit -> feedback loop);
``edit``      an edit alone (edit-heavy durable traffic);
``poll``      a view refresh, ``poll_report(if_mark=...)`` with the mark
              of the viewer's last report of that session;
``check``     ``/v1/check`` (strong goal, ``max_domain`` 2).
"""

from __future__ import annotations

import http.client
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.server.client import ServiceClient

CHECK_DOMAIN = 2


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def windowed_percentile(
    samples: list[tuple[float, float]], q: float, need: int, max_windows: int = 5
) -> float:
    """Median over consecutive windows of the ``q``-th percentile.

    ``samples`` are ``(due, value)`` pairs.  They are cut, in due order,
    into as many equal-count windows as hold at least ``need`` samples
    each (at most ``max_windows``, at least one); the percentile of each
    window is taken and their median returned.  A burst that spoils one
    window (a host hiccup) then moves the result less than it would move
    one percentile over the whole sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = [value for _, value in sorted(samples)]
    windows = max(1, min(max_windows, len(ordered) // need))
    size = len(ordered) / windows
    return statistics.median(
        percentile(ordered[round(k * size) : round((k + 1) * size)], q)
        for k in range(windows)
    )


def backlog_growing(dues: list[float], starts: list[float], limit_s: float) -> bool:
    """Did the queue in front of the senders grow over a rung?

    The queueing delay of an interaction is ``start - due``.  At a rate
    the system sustains it is stationary; past capacity it grows linearly.
    The backlog counts as growing when the median delay of the last
    quarter of the rung exceeds that of the first quarter by more than
    half the latency limit.
    """
    pairs = sorted(zip(dues, starts))
    if len(pairs) < 8:
        return False
    quarter = len(pairs) // 4
    first = [start - due for due, start in pairs[:quarter]]
    last = [start - due for due, start in pairs[-quarter:]]
    return percentile(last, 50) - percentile(first, 50) > 0.5 * limit_s


@dataclass
class Interaction:
    due: float  # seconds from the rung start
    session: int
    kind: str
    edit: tuple[str, list[Any], dict[str, Any]] | None = None
    edits_before: int = 0  # the session's edits scheduled before this one


@dataclass
class Outcome:
    """What happened to one interaction (times are absolute perf_counter)."""

    interaction: Interaction
    due: float
    start: float
    idle: bool  # the sender was free at the due time
    edit_end: float | None = None
    end: float | None = None
    error: str | None = None
    status: str | None = None  # check verdict
    report_bytes: int = 0
    conflicts: int = 0
    kept: int = 0
    rtts: list[tuple[str, float]] = field(default_factory=list)


def open_schedule(
    rng: random.Random, rate: float, duration: float, pick: Any
) -> list[Interaction]:
    """Arrivals at a constant ``rate``/s over ``duration`` s, evenly spaced
    (an open loop: due times never depend on answers); ``pick(rng, due)``
    turns each arrival into an :class:`Interaction`.  Even spacing keeps
    the queueing a rung builds from depending on arrival bursts, so runs
    on different seeds measure the same load."""
    count = int(rate * duration)
    return [pick(rng, (index + 0.5) / rate) for index in range(count)]


class _ByteCounter:
    """Counts the bytes of each HTTP response body read in this process
    (traced runs only: ``client.report_kb``)."""

    def __init__(self) -> None:
        self.local = threading.local()
        self._original = http.client.HTTPResponse.read

    def install(self) -> None:
        original = self._original
        local = self.local

        def read(response: http.client.HTTPResponse, amt: int | None = None) -> bytes:
            data = original(response, amt)
            local.last = len(data)
            return data

        http.client.HTTPResponse.read = read  # type: ignore[method-assign]

    def last(self) -> int:
        return getattr(self.local, "last", 0)


class Sender(threading.Thread):
    """One sender thread: one keep-alive client, its pinned sessions."""

    def __init__(
        self,
        url: str,
        names: list[str],
        plan: list[Interaction],
        origin: float,
        abort_after: float,
        stop: threading.Event,
        counter: _ByteCounter | None,
        viewer_marks: dict[int, str | None],
    ) -> None:
        super().__init__(daemon=True)
        self.url = url
        self.names = names
        self.plan = plan
        self.origin = origin
        self.abort_after = abort_after
        self.stop_event = stop
        self.counter = counter
        self.outcomes: list[Outcome] = []
        # Shared across rungs; a session's entry is only touched by the
        # one sender the session is pinned to.
        self.viewer_marks = viewer_marks
        self.aborted = False
        self.crashed: BaseException | None = None

    def run(self) -> None:
        try:
            with ServiceClient(self.url, timeout=60.0) as client:
                self._run(client)
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            self.crashed = error

    def _timed(self, outcome: Outcome, verb: str, call: Any) -> Any:
        began = time.perf_counter()
        result = call()
        outcome.rtts.append((verb, time.perf_counter() - began))
        return result

    def _run(self, client: ServiceClient) -> None:
        free_at = 0.0
        for item in self.plan:
            if self.stop_event.is_set():
                return
            due = self.origin + item.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            if start - due > self.abort_after:
                # Far past capacity: the rung has failed; stop feeding it.
                self.aborted = True
                self.stop_event.set()
                return
            outcome = Outcome(item, due, start, idle=free_at <= due)
            self._perform(client, item, outcome)
            free_at = time.perf_counter()
            self.outcomes.append(outcome)

    def _perform(self, client: ServiceClient, item: Interaction, outcome: Outcome) -> None:
        name = self.names[item.session]
        try:
            if item.kind in ("feedback", "edit"):
                verb, args, kwargs = item.edit  # type: ignore[misc]
                self._timed(outcome, "edit", lambda: client.edit(name, verb, *args, **kwargs))
                outcome.edit_end = time.perf_counter()
                if item.kind == "feedback":
                    self._timed(outcome, "report", lambda: client.poll_report(name))
                    if self.counter is not None:
                        outcome.report_bytes = self.counter.last()
            elif item.kind == "poll":
                mark = self.viewer_marks.get(item.session)
                state = self._timed(
                    outcome, "report", lambda: client.poll_report(name, if_mark=mark)
                )
                self.viewer_marks[item.session] = state["mark"]
            elif item.kind == "check":
                verdict = self._timed(
                    outcome,
                    "check",
                    lambda: client.check(name, "strong", max_domain=CHECK_DOMAIN),
                )
                outcome.status = verdict["status"]
                outcome.conflicts = int(verdict.get("conflicts", 0))
                outcome.kept = int(verdict.get("kept_clauses", 0))
            else:  # pragma: no cover - schedule bug
                raise ValueError(f"unknown interaction kind {item.kind!r}")
        except Exception as error:  # noqa: BLE001 - every failure is counted
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.end = time.perf_counter()


def run_rung(
    url: str,
    names: list[str],
    plan: list[Interaction],
    pins: list[int],
    *,
    abort_after: float,
    viewer_marks: dict[int, str | None],
    counter: _ByteCounter | None = None,
    lead: float = 0.05,
) -> tuple[list[Outcome], bool, float, float]:
    """Play one rung's schedule with session ``i`` pinned to sender
    ``pins[i]``; returns ``(outcomes, aborted, t0, t1)`` with ``t0``/``t1``
    the perf_counter bounds of the rung."""
    stop = threading.Event()
    origin = time.perf_counter() + lead
    by_sender: list[list[Interaction]] = [[] for _ in range(max(pins) + 1)]
    for item in plan:
        by_sender[pins[item.session]].append(item)
    threads = [
        Sender(url, names, items, origin, abort_after, stop, counter, viewer_marks)
        for items in by_sender
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for thread in threads:
        if thread.crashed is not None:
            raise thread.crashed
    outcomes = sorted(
        (outcome for thread in threads for outcome in thread.outcomes),
        key=lambda outcome: outcome.due,
    )
    return outcomes, any(t.aborted for t in threads), origin, time.perf_counter()
