"""The benchmark's workloads: sessions, traffic mix and rate ladder.

Each workload is one traffic mix against one server deployment.  Why
each exists (which layers it stresses, and which it deliberately
bypasses) is recorded in ``why`` and in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from inputs import ScriptGenerator, large_session, small_session
from loadgen import Interaction, open_schedule


@dataclass
class SessionSpec:
    name: str
    dsl: str  # the opening schema, shipped in the open call
    generator: ScriptGenerator  # continues the session's edit stream
    checks: bool = False  # issues /v1/check
    measured: bool = True  # counts towards the feedback/edit metrics


@dataclass
class Workload:
    name: str
    why: str
    durable: bool
    #: Offered interaction rates (1/s), lowest first; rung 0 is the
    #: reference rung the latency metrics are read at.
    ladder: tuple[float, ...]
    #: Share of the measured seconds each rung runs for.
    shares: tuple[float, ...]
    #: Latency limit on feedback p99 for a rung to count as sustained.
    limit_ms: float
    sessions: Callable[[int], list[SessionSpec]]
    #: ``(rng, sessions) -> (kind, session index)`` for one arrival.
    mix: Callable[[random.Random, list[SessionSpec]], tuple[str, int]]

    def flags(self, data_dir: str | None) -> list[str]:
        """The ``serve`` flags of this deployment (port 0: pick a free one)."""
        if self.durable:
            return ["--port", "0", "--workers", "2", "--data-dir", str(data_dir)]
        return ["--port", "0"]

    def plan(self, seed: int, seconds: float) -> tuple[list[SessionSpec], list[list[Interaction]]]:
        """Sessions and every rung's schedule, all derived from ``seed``.

        Edits are drawn in schedule order, so each session's acknowledged
        edits are always a prefix of its stream whichever rung the ladder
        stops at.
        """
        sessions = self.sessions(seed)
        rng = random.Random(seed * 7919 + 17)
        scheduled = [0] * len(sessions)
        counts = [0] * len(sessions)

        def pick(rng: random.Random, due: float) -> Interaction:
            kind, index = self.mix(rng, sessions)
            if kind == "edit" and self.durable:
                # Edit-heavy durable traffic: every 8th edit of a session
                # asks for the report that reflects it.
                counts[index] += 1
                if counts[index] % 8 == 0:
                    kind = "feedback"
            item = Interaction(due, index, kind, edits_before=scheduled[index])
            if kind in ("feedback", "edit"):
                item.edit = sessions[index].generator.next_edit()
                scheduled[index] += 1
            return item

        rungs = [
            open_schedule(rng, rate, seconds * share, pick)
            for rate, share in zip(self.ladder, self.shares)
        ]
        return sessions, rungs


def _check_sessions(seed: int, count: int, *, measured: bool = True) -> list[SessionSpec]:
    # Small and value-pool free, so a bounded check stays in milliseconds
    # (see inputs.small_session); P4/P5 are planted in the other sessions.
    return [
        SessionSpec(
            f"chk{i}",
            *small_session(seed * 1000 + i, f"chk{i}", start=30, low=30, high=50, values=False),
            checks=True,
            measured=measured,
        )
        for i in range(count)
    ]


def _modeler_sessions(seed: int) -> list[SessionSpec]:
    sessions = _check_sessions(seed, 8)
    for i in range(56):
        dsl, generator = small_session(seed * 1000 + 100 + i, f"mod{i}", start=80, low=100, high=200)
        sessions.append(SessionSpec(f"mod{i}", dsl, generator))
    return sessions


def _modelers_mix(rng: random.Random, sessions: list[SessionSpec]) -> tuple[str, int]:
    draw = rng.random()
    if draw < 0.10:
        return "check", rng.randrange(8)
    if draw < 0.22:
        return "poll", rng.randrange(len(sessions))
    return "feedback", rng.randrange(len(sessions))


#: The generated schema both large sessions open.  It is the same for
#: every run seed, so runs compare like with like; the run seed picks the
#: edit streams and the schedule.
LARGE_SCHEMA_SEED = 4242


def _large_sessions(seed: int) -> list[SessionSpec]:
    dsl = large_session(LARGE_SCHEMA_SEED, "big", types=500, facts=800)[0]
    big = [
        SessionSpec(f"big{i}", *large_session(seed * 1000 + i, "big", types=500, facts=800, dsl=dsl))
        for i in range(2)
    ]
    side = _check_sessions(seed, 2, measured=False)
    # Dealt round-robin to two senders, this order puts both large sessions
    # on one: served concurrently, their refreshes contend for the
    # interpreter lock and a 25-50 ms refresh takes 150-300 ms.
    return [big[0], side[0], big[1], side[1]]


def _large_mix(rng: random.Random, sessions: list[SessionSpec]) -> tuple[str, int]:
    draw = rng.random()
    if draw < 0.10:
        return "check", rng.choice((1, 3))
    if draw < 0.13:
        return "feedback", rng.choice((1, 3))
    return "feedback", rng.choice((0, 2))


def _durable_sessions(seed: int) -> list[SessionSpec]:
    sessions = _check_sessions(seed, 4)
    for i in range(28):
        dsl, generator = small_session(seed * 1000 + 100 + i, f"dur{i}", start=60, low=80, high=160)
        sessions.append(SessionSpec(f"dur{i}", dsl, generator))
    return sessions


def _durable_mix(rng: random.Random, sessions: list[SessionSpec]) -> tuple[str, int]:
    if rng.random() < 0.05:
        return "check", rng.randrange(4)
    return "edit", rng.randrange(len(sessions))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="modelers",
            why="64 small sessions over 16 live engines: wire, service journal, "
            "drain ticks, LRU suspend/resume and warm checks dominate",
            durable=False,
            ladder=(200.0, 1000.0, 5000.0),
            shares=(0.6, 0.2, 0.2),
            limit_ms=100.0,
            sessions=_modeler_sessions,
            mix=_modelers_mix,
        ),
        Workload(
            name="large_schema",
            why="two 3k-element sessions: engine refresh, report build and "
            "encoding of ~90 KB reports dominate; no LRU and no durability",
            durable=False,
            ladder=(54.0, 270.0, 1350.0),
            shares=(0.7, 0.15, 0.15),
            limit_ms=100.0,
            sessions=_large_sessions,
            mix=_large_mix,
        ),
        Workload(
            name="durable_router",
            why="serve --workers 2 --data-dir: router, pipe, fsync'd log "
            "appends, compaction and kill -9 recovery",
            durable=True,
            ladder=(150.0, 300.0, 600.0),
            shares=(0.6, 0.25, 0.15),
            limit_ms=100.0,
            sessions=_durable_sessions,
            mix=_durable_mix,
        ),
    )
}
