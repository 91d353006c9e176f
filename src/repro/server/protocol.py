"""The JSON wire protocol of the validation service.

One request/response shape per :class:`~repro.server.service.ValidationService`
verb, shared by the asyncio HTTP front (:mod:`repro.server.wire`) and the
client (:mod:`repro.server.client`).  Everything on the wire is a JSON
object; successful responses carry ``{"ok": true, ...}``, failures carry
``{"ok": false, "error": {"code": ..., "message": ...}}`` with a matching
HTTP status — *structured* errors, never a traceback body.

Endpoints (see :class:`repro.server.wire.WireServer`):

=======================  ====================================================
``POST /v1/open``        ``{"session", "settings"?, "schema_dsl"?}``
``POST /v1/edit``        ``{"session", "verb", "args"?, "kwargs"?}``
``POST /v1/report``      ``{"session", "if_mark"?}``
``POST /v1/check``       ``{"session", "goal"?, "max_domain"?}`` — complete
                         (bounded) satisfiability, warm per session
``POST /v1/close``       ``{"session"}``
``POST /v1/drain``       ``{"sessions"?, "min_pending"?}`` — the service tick
``POST /v1/resize``      ``{"workers"}`` — grow/shrink the worker pool at
                         runtime (admin verb; multi-process backends only)
``GET  /healthz``        liveness + the service census
=======================  ====================================================

``/v1/report`` responses carry a ``mark`` — an opaque ETag over the
session's journal position.  A client polling an unchanged session echoes
it as ``if_mark`` and gets the 304-style short-circuit
``{"ok": true, "unchanged": true, "mark": ...}`` instead of a re-serialized
report (see :meth:`repro.server.service.ValidationService.report_marked`).

When the server was started with a shared token (``orm-validate serve
--token`` / ``ORM_VALIDATE_TOKEN``), every ``/v1/*`` request must carry
``Authorization: Bearer <token>``; failures are the structured
``unauthorized`` error (401).  ``GET /healthz`` stays unauthenticated so
orchestrator liveness probes keep working.

``settings`` serializes :class:`~repro.tool.validator.ValidatorSettings`
(:func:`settings_to_payload` / :func:`settings_from_payload`); reports
serialize :class:`~repro.tool.validator.ToolReport`
(:func:`report_to_payload` — the same shape the CLI's ``--format json``
prints).  ``schema_dsl`` is the ORM text DSL, letting a remote client ship
a whole schema in the open call instead of replaying it as edits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.exceptions import ReproError

# The report payload shape and its renderer are owned by the tool layer
# (one shape for --format json and the wire; one renderer for the local
# and the remote CLI) and re-exported here as part of the protocol surface.
from repro.tool.validator import (  # noqa: F401  (re-exports)
    EncodedPayload,
    ReportPayloadCache,
    ValidatorSettings,
    render_report_payload,
    report_to_payload,
)

#: A decoded JSON object, as every wire body is.
Payload = dict[str, Any]


def encode_payload(payload: Payload) -> bytes:
    """The UTF-8 JSON body of one response: ``json.dumps(payload)``, except
    that a top-level :class:`EncodedPayload` value (a report built through
    a :class:`ReportPayloadCache`) is spliced in as its own text."""
    fields = (
        f"{json.dumps(key)}: "
        f"{value.text if isinstance(value, EncodedPayload) else json.dumps(value)}"
        for key, value in payload.items()
    )
    return ("{" + ", ".join(fields) + "}").encode("utf-8")


#: A reasoning goal: one of the well-known strings, or ``(kind, name)`` /
#: ``("roles", (name, ...))`` targeting specific schema elements.
Goal = str | tuple[str, str] | tuple[str, tuple[str, ...]]

#: Protocol version, echoed by ``/healthz`` so clients can detect skew.
#: Version 2 (multi-process PR) is additive over 1: report ``mark``/
#: ``if_mark``, token auth, and the aggregated ``workers`` health section.
#: Version 3 is additive over 2: the ``/v1/check`` verb (complete bounded
#: satisfiability with a decoded witness population).
#: Version 4 is additive over 3: the ``/v1/resize`` admin verb (runtime
#: worker-pool grow/shrink with rendezvous-scoped live migration) and the
#: ``not_resizable`` / ``storage_error`` codes (single-process backends
#: cannot resize; a durable-log append that fails must refuse the edit
#: rather than acknowledge it).
#:
#: Bump this for any wire-visible change (request fields, response keys,
#: error codes, routing): the contract gate
#: (``python -m repro.devtools.contract src/``, in CI) diffs the extracted
#: protocol against ``docs/protocol_spec.json`` and fails on drift that is
#: not accompanied by a bump + baseline refresh.
WIRE_VERSION = 4

#: Upper bound accepted for ``/v1/resize``'s ``workers``: each worker is a
#: full interpreter process, so an unbounded resize request is a trivial
#: fork bomb.  64 is far beyond any deployment this service targets.
MAX_RESIZE_WORKERS = 64

#: Upper bound accepted for ``/v1/check``'s ``max_domain``: the encoding is
#: combinatorial in the domain size, so an unbounded request is a trivial
#: resource-exhaustion vector.  8 comfortably covers every bound the paper's
#: figures need (the largest is 6).
MAX_CHECK_DOMAIN = 8

# -- error codes (wire-visible) and their HTTP statuses -------------------

MALFORMED_REQUEST = "malformed_request"
UNKNOWN_ENDPOINT = "unknown_endpoint"
METHOD_NOT_ALLOWED = "method_not_allowed"
UNAUTHORIZED = "unauthorized"
UNKNOWN_SESSION = "unknown_session"
SESSION_EXISTS = "session_exists"
UNKNOWN_VERB = "unknown_verb"
#: ``/v1/check`` named a goal kind the reasoner does not know, or a goal
#: role/type that does not exist in the session's schema.
UNKNOWN_GOAL = "unknown_goal"
SCHEMA_ERROR = "schema_error"
SERVER_SHUTDOWN = "server_shutdown"
INTERNAL_ERROR = "internal_error"
#: A worker subprocess died and could not be revived in time to answer.
WORKER_FAILED = "worker_failed"
#: A worker offered an incompatible router<->worker protocol at handshake.
WORKER_PROTOCOL_MISMATCH = "worker_protocol_mismatch"
#: ``/v1/resize`` reached a backend with no worker pool to resize (the
#: single-process :class:`~repro.server.wire.LocalBackend`).
NOT_RESIZABLE = "not_resizable"
#: A durable-log append failed (disk full, I/O error) — the request was
#: refused *before* acknowledgement, so nothing unlogged was ever acked.
STORAGE_ERROR = "storage_error"

HTTP_STATUS = {
    MALFORMED_REQUEST: 400,
    UNKNOWN_VERB: 400,
    UNAUTHORIZED: 401,
    UNKNOWN_ENDPOINT: 404,
    UNKNOWN_SESSION: 404,
    METHOD_NOT_ALLOWED: 405,
    SESSION_EXISTS: 409,
    NOT_RESIZABLE: 409,
    UNKNOWN_GOAL: 422,
    SCHEMA_ERROR: 422,
    INTERNAL_ERROR: 500,
    WORKER_PROTOCOL_MISMATCH: 500,
    SERVER_SHUTDOWN: 503,
    WORKER_FAILED: 503,
    STORAGE_ERROR: 507,
}


class WireError(ReproError):
    """A structured protocol error (either side of the wire).

    Carries the wire-visible ``code`` and the HTTP status it maps to; the
    server turns it into the error response shape, the client raises it
    when a response carries one.
    """

    def __init__(self, code: str, message: str, http_status: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.http_status = http_status or HTTP_STATUS.get(code, 500)

    def to_payload(self) -> Payload:
        """The ``{"ok": false, "error": ...}`` response body."""
        return {"ok": False, "error": {"code": self.code, "message": str(self)}}


def _require(
    payload: Payload, key: str, kind: type, *, optional: bool = False
) -> Any:
    """Typed field access over a decoded JSON body (wire-error on misuse)."""
    if not isinstance(payload, dict):
        raise WireError(MALFORMED_REQUEST, "request body must be a JSON object")
    value = payload.get(key)
    if value is None:
        if optional:
            return None
        raise WireError(MALFORMED_REQUEST, f"missing required field {key!r}")
    if not isinstance(value, kind):
        raise WireError(
            MALFORMED_REQUEST,
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}",
        )
    return value


# -- request shapes --------------------------------------------------------


@dataclass(frozen=True)
class OpenRequest:
    """``POST /v1/open`` — open a named session, optionally shipping a
    whole schema (ORM text DSL) and a settings profile."""

    session: str
    settings: Payload | None = None
    schema_dsl: str | None = None

    @classmethod
    def from_payload(cls, payload: Payload) -> "OpenRequest":
        return cls(
            session=_require(payload, "session", str),
            settings=_require(payload, "settings", dict, optional=True),
            schema_dsl=_require(payload, "schema_dsl", str, optional=True),
        )


@dataclass(frozen=True)
class EditRequest:
    """``POST /v1/edit`` — one session-verb edit (no validation; the
    batched-drain contract is unchanged over the wire)."""

    session: str
    verb: str
    args: list[Any] = field(default_factory=list)
    kwargs: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Payload) -> "EditRequest":
        return cls(
            session=_require(payload, "session", str),
            verb=_require(payload, "verb", str),
            args=_require(payload, "args", list, optional=True) or [],
            kwargs=_require(payload, "kwargs", dict, optional=True) or {},
        )


@dataclass(frozen=True)
class SessionRequest:
    """``POST /v1/close`` — one session by name."""

    session: str

    @classmethod
    def from_payload(cls, payload: Payload) -> "SessionRequest":
        return cls(session=_require(payload, "session", str))


@dataclass(frozen=True)
class ReportRequest:
    """``POST /v1/report`` — drain one session and return its report.

    ``if_mark`` is the ETag short-circuit: echo the ``mark`` of the
    previous report response and the server answers
    ``{"ok": true, "unchanged": true, "mark": ...}`` when nothing was
    edited since, skipping the report serialization entirely.
    """

    session: str
    if_mark: str | None = None

    @classmethod
    def from_payload(cls, payload: Payload) -> "ReportRequest":
        return cls(
            session=_require(payload, "session", str),
            if_mark=_require(payload, "if_mark", str, optional=True),
        )


def goal_from_payload(value: object) -> Goal:
    """Decode the wire form of a reasoning goal.

    A goal is either one of the strings ``"strong"`` / ``"concept"`` /
    ``"weak"`` / ``"global"``, or an object ``{"kind": "role"|"type",
    "name": ...}`` / ``{"kind": "roles", "names": [...]}`` targeting
    specific elements.  Shape errors are ``malformed_request``; whether the
    named kind/element exists is decided by the reasoner (``unknown_goal``).
    """
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        kind = _require(value, "kind", str)
        if kind == "roles":
            names = _require(value, "names", list)
            if not all(isinstance(name, str) for name in names):
                raise WireError(MALFORMED_REQUEST, "'names' must be a list of strings")
            return (kind, tuple(names))
        name = _require(value, "name", str)
        return (kind, name)
    raise WireError(MALFORMED_REQUEST, "'goal' must be a string or an object")


def goal_to_payload(goal: Goal) -> str | Payload:
    """The wire form of a goal (inverse of :func:`goal_from_payload`)."""
    if isinstance(goal, tuple):
        kind, name = goal
        if kind == "roles":
            return {"kind": kind, "names": list(name)}
        return {"kind": kind, "name": name}
    return goal


@dataclass(frozen=True)
class CheckRequest:
    """``POST /v1/check`` — complete bounded satisfiability of a session.

    ``goal`` defaults to strong (role) satisfiability; ``max_domain`` to 4
    abstract individuals, capped at :data:`MAX_CHECK_DOMAIN`.
    """

    session: str
    goal: Goal = "strong"
    max_domain: int = 4

    @classmethod
    def from_payload(cls, payload: Payload) -> "CheckRequest":
        session = _require(payload, "session", str)
        raw_goal = payload.get("goal")
        goal = goal_from_payload(raw_goal) if raw_goal is not None else "strong"
        max_domain = _require(payload, "max_domain", int, optional=True)
        if max_domain is None:
            max_domain = 4
        if isinstance(max_domain, bool) or not 0 <= max_domain <= MAX_CHECK_DOMAIN:
            raise WireError(
                MALFORMED_REQUEST,
                f"'max_domain' must be an integer in 0..{MAX_CHECK_DOMAIN}",
            )
        return cls(session=session, goal=goal, max_domain=max_domain)


@dataclass(frozen=True)
class DrainRequest:
    """``POST /v1/drain`` — one service tick over all (or named) sessions."""

    sessions: list[str] | None = None
    min_pending: int = 1

    @classmethod
    def from_payload(cls, payload: Payload) -> "DrainRequest":
        sessions = _require(payload, "sessions", list, optional=True)
        if sessions is not None and not all(isinstance(n, str) for n in sessions):
            raise WireError(MALFORMED_REQUEST, "'sessions' must be a list of names")
        min_pending = _require(payload, "min_pending", int, optional=True)
        return cls(sessions=sessions, min_pending=min_pending or 1)


@dataclass(frozen=True)
class ResizeRequest:
    """``POST /v1/resize`` — grow or shrink the worker pool at runtime.

    An admin verb: the router spawns/retires workers and live-migrates
    only the sessions whose rendezvous owner changed (see
    :func:`repro.server.sharding.rendezvous_owner`).  Single-process
    backends answer ``not_resizable``.
    """

    workers: int

    @classmethod
    def from_payload(cls, payload: Payload) -> "ResizeRequest":
        workers = _require(payload, "workers", int)
        if isinstance(workers, bool) or not 1 <= workers <= MAX_RESIZE_WORKERS:
            raise WireError(
                MALFORMED_REQUEST,
                f"'workers' must be an integer in 1..{MAX_RESIZE_WORKERS}",
            )
        return cls(workers=workers)


# -- payload (de)serialization ---------------------------------------------


def settings_to_payload(settings: ValidatorSettings) -> Payload:
    """Serialize a Fig. 15 settings profile for the wire."""
    return {
        "patterns": dict(settings.patterns),
        "wellformedness": settings.wellformedness,
        "formation_rules": settings.formation_rules,
        "propagation": settings.propagation,
    }


_SETTINGS_FLAGS = ("wellformedness", "formation_rules", "propagation")


def settings_from_payload(payload: Payload) -> ValidatorSettings:
    """Build a :class:`ValidatorSettings` from its wire form.

    ``patterns`` may be a dict ``{pattern_id: bool}`` or a list of enabled
    ids (everything else unticked); unknown pattern ids or flags are
    malformed requests, not silent no-ops.
    """
    settings = ValidatorSettings()
    unknown = set(payload) - {"patterns", *_SETTINGS_FLAGS}
    if unknown:
        raise WireError(
            MALFORMED_REQUEST, f"unknown settings field(s): {sorted(unknown)}"
        )
    patterns = payload.get("patterns")
    if patterns is not None:
        if isinstance(patterns, list):
            patterns = {pid: True for pid in patterns}
            wanted = dict.fromkeys(settings.patterns, False)
            wanted.update(patterns)
        elif isinstance(patterns, dict):
            wanted = dict(settings.patterns)
            wanted.update(patterns)
        else:
            raise WireError(MALFORMED_REQUEST, "'patterns' must be a list or object")
        try:
            for pattern_id, enabled in wanted.items():
                if enabled:
                    settings.enable(pattern_id)
                else:
                    settings.disable(pattern_id)
        except KeyError as error:
            raise WireError(MALFORMED_REQUEST, f"unknown pattern id {error}") from None
    for flag in _SETTINGS_FLAGS:
        if flag in payload:
            value = payload[flag]
            if not isinstance(value, bool):
                raise WireError(MALFORMED_REQUEST, f"settings field {flag!r} must be a bool")
            setattr(settings, flag, value)
    return settings


def edit_result_to_payload(result: object) -> Payload:
    """Serialize whatever a Schema mutator returned (the created/removed
    element) down to what a remote editor needs: its name or label."""
    payload: Payload = {"kind": type(result).__name__}
    label = getattr(result, "label", None)
    if isinstance(label, str):
        payload["label"] = label
    name = getattr(result, "name", None)
    if isinstance(name, str):
        payload["name"] = name
    if not ("label" in payload or "name" in payload):
        payload["repr"] = repr(result)
    return payload


def stats_to_payload(stats: Any) -> Payload:
    """Serialize a :class:`DrainStats` / :class:`ServiceStats` dataclass."""
    return asdict(stats)


def witness_to_payload(witness: Any) -> Payload:
    """Serialize a witness :class:`~repro.population.population.Population`.

    Only populated types/facts appear; instances and tuples are sorted so
    the payload is deterministic (the conformance tests compare it across
    backends byte-for-byte).
    """
    types = {
        type_name: sorted(witness.instances_of(type_name))
        for type_name in sorted(witness.populated_types())
    }
    facts: dict[str, list[list[str]]] = {}
    for fact in witness.schema.fact_types():
        tuples = witness.tuples_of(fact.name)
        if tuples:
            facts[fact.name] = sorted(list(pair) for pair in tuples)
    return {"types": types, "facts": facts}


def verdict_to_payload(verdict: Any) -> Payload:
    """Serialize a reasoner :class:`~repro.reasoner.modelfinder.Verdict`.

    ``status`` is ``"sat"`` (with a ``witness``), ``"unsat"`` (no model
    within the bound) or ``"unknown"`` (the solver's decision budget ran
    out on the listed ``inconclusive_sizes`` with no SAT answer — neither
    satisfiability nor bounded unsatisfiability is established).
    """
    payload = {
        "status": verdict.status,
        "goal": goal_to_payload(verdict.goal),
        "domain_size": verdict.domain_size,
        "sizes_tried": list(verdict.sizes_tried),
        "inconclusive_sizes": list(verdict.inconclusive_sizes),
        "decisions": verdict.decisions,
        "conflicts": verdict.conflicts,
        "restarts": verdict.restarts,
        "learned_clauses": verdict.learned_clauses,
        "kept_clauses": verdict.kept_clauses,
        "clauses": verdict.clauses,
        "variables": verdict.variables,
        "elapsed_seconds": verdict.elapsed_seconds,
    }
    if verdict.witness is not None:
        payload["witness"] = witness_to_payload(verdict.witness)
    return payload
