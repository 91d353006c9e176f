"""The DogmaModeler-style validator (paper Fig. 15 and Sec. 4).

Fig. 15 shows DogmaModeler's *Validator Settings* window: a checkbox per
reasoning pattern, so modelers decide which validations run.
:class:`ValidatorSettings` is that window as data; :class:`Validator`
combines the pattern engine with the structural well-formedness advisories,
the formation-rule analysis and unsatisfiability propagation into one
report whose rendered form mirrors the generated messages the paper
highlights ("which constraints cause the unsatisfiability, the problems
with the other constraints, etc.").

Since every analysis is site-based (see :mod:`repro.patterns.base`), the
settings toggles select **analysis families inside one**
:class:`repro.patterns.incremental.IncrementalEngine` rather than choosing
between incremental and from-scratch code paths: patterns, advisories,
formation rules and propagation are all maintained from the same journal
drain.  The from-scratch analysis survives only as
:func:`reference_validate` — the testing/benchmark reference the
equivalence property tests compare the engine against; it is no longer a
public settings toggle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.orm.schema import Schema
from repro.orm.wellformed import Advisory, check_wellformedness
from repro.patterns.base import ValidationReport, Violation
from repro.patterns.engine import ALL_IDS, PATTERN_IDS, PatternEngine, pattern_by_id
from repro.patterns.formation_rules import RuleFinding, check_formation_rules
from repro.patterns.incremental import IncrementalEngine
from repro.patterns.propagation import PropagationResult, propagate


@dataclass
class ValidatorSettings:
    """The Fig. 15 settings window as data.

    ``patterns`` maps pattern id to enabled (the paper's nine are ticked by
    default; the Sec. 5 extension patterns X1-X3 exist but start unticked);
    ``wellformedness``, ``formation_rules`` and ``propagation`` toggle the
    auxiliary analysis families.  All enabled families are maintained by
    the dependency-indexed
    :class:`repro.patterns.incremental.IncrementalEngine` — per-edit cost
    scales with the edit, not the schema.  (The pre-PR-4 ``incremental``
    toggle is retired; the from-scratch path lives on only as the
    test-reference :func:`reference_validate`.)
    """

    patterns: dict[str, bool] = field(
        default_factory=lambda: {pattern_id: True for pattern_id in PATTERN_IDS}
    )
    wellformedness: bool = True
    formation_rules: bool = False  # style feedback is opt-in, as in the tool
    propagation: bool = False  # blast-radius derivation is opt-in too

    def enable(self, pattern_id: str) -> None:
        """Tick one pattern checkbox (paper patterns or X extensions)."""
        pattern_by_id(pattern_id)
        self.patterns[pattern_id] = True

    def disable(self, pattern_id: str) -> None:
        """Untick one pattern checkbox."""
        pattern_by_id(pattern_id)
        self.patterns[pattern_id] = False

    def enable_extensions(self) -> None:
        """Tick all Sec. 5 extension patterns at once."""
        from repro.patterns.extensions import EXTENSION_IDS

        for pattern_id in EXTENSION_IDS:
            self.patterns[pattern_id] = True

    def enabled_ids(self) -> list[str]:
        """Pattern ids currently ticked, in registry order."""
        return [pid for pid in ALL_IDS if self.patterns.get(pid, False)]

    def family_key(self) -> tuple:
        """Everything an attached engine's configuration depends on."""
        return (
            tuple(self.enabled_ids()),
            self.wellformedness,
            self.formation_rules,
            self.propagation,
        )


@dataclass
class ToolReport:
    """Everything one validation run produced."""

    schema_name: str
    pattern_report: ValidationReport
    advisories: list[Advisory] = field(default_factory=list)
    rule_findings: list[RuleFinding] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    propagation: PropagationResult | None = None

    @property
    def ok(self) -> bool:
        """True when no unsatisfiability was detected (advisories may exist)."""
        return self.pattern_report.is_satisfiable

    def render(self) -> str:
        """The DogmaModeler-style message list.

        One renderer serves both the local and the remote CLI:
        :func:`render_report_payload` over :func:`report_to_payload`, plus
        the local-only footer (checked patterns and timing, which the wire
        payload deliberately omits).
        """
        return "\n".join(
            (
                render_report_payload(report_to_payload(self)),
                f"(checked patterns: {', '.join(self.pattern_report.patterns_run)}; "
                f"{self.elapsed_seconds * 1000:.1f} ms)",
            )
        )


def _violation_payload(violation: Violation) -> dict:
    return {
        "pattern": violation.pattern_id,
        "message": violation.message,
        "roles": list(violation.roles),
        "types": list(violation.types),
        "constraints": list(violation.constraints),
    }


def _advisory_payload(advisory: Advisory) -> dict:
    return {"code": advisory.code, "message": advisory.message}


def _rule_finding_payload(finding: RuleFinding) -> dict:
    return {
        "rule": finding.rule_id,
        "relevant": finding.relevant,
        "message": finding.message,
    }


def _items_payload(findings, item_payload) -> list[dict]:
    return [item_payload(finding) for finding in findings]


def _assemble_payload(report: ToolReport, items) -> dict:
    """The report shape, with ``items(findings, item_payload)`` deciding how
    the finding lists are built (fresh, or reused by a
    :class:`ReportPayloadCache`)."""
    payload = {
        "schema": report.schema_name,
        "satisfiable_by_patterns": report.ok,
        "violations": items(report.pattern_report.violations, _violation_payload),
        "advisories": items(report.advisories, _advisory_payload),
        "formation_rules": items(report.rule_findings, _rule_finding_payload),
    }
    if report.propagation is not None:
        propagation = report.propagation
        payload["propagated"] = {
            "direct_roles": sorted(propagation.direct_roles),
            "direct_types": sorted(propagation.direct_types),
            "unsat_roles": sorted(propagation.all_unsat_roles()),
            "unsat_types": sorted(propagation.all_unsat_types()),
            "derived": [
                {"element": item.element, "kind": item.kind, "via": item.via}
                for item in propagation.derived
            ],
        }
    return payload


def report_to_payload(
    report: ToolReport, cache: ReportPayloadCache | None = None
) -> dict:
    """Serialize a :class:`ToolReport` to its machine-readable JSON shape.

    This one shape is shared by the CLI's ``--format json`` output and the
    wire protocol (:mod:`repro.server.protocol` re-exports it) — local and
    remote reports are byte-comparable.  With ``cache`` (one per session)
    the result is an :class:`EncodedPayload` that also carries its JSON
    text, built from the previous report's items wherever a finding is
    unchanged.
    """
    if cache is not None:
        return cache.payload(report)
    return _assemble_payload(report, _items_payload)


class EncodedPayload(dict):
    """A payload dict that carries its own JSON text: ``text`` equals
    ``json.dumps(self)``.  Encoders splice the text in instead of walking
    the dict (see :func:`repro.server.protocol.encode_payload`); the dict
    must not be mutated."""

    __slots__ = ("text",)

    def __init__(self, payload: dict, text: str) -> None:
        super().__init__(payload)
        self.text = text


class ReportPayloadCache:
    """The items of one session's previous report payload, for reuse.

    After a local edit almost every finding of the next report is the very
    object of the report before: the engine keeps an unchanged site's
    findings, and findings are frozen.  The cache keeps each finding of the
    last payload with its item dict and item JSON text, keyed by object
    identity (the entry holds the finding, so its id cannot be reused), and
    builds items only for findings it has not seen.  A payload then costs
    O(findings) lookups plus the new findings' encoding, not a full build
    and ``json.dumps`` of the report.

    The item dicts are shared between successive payloads, so payloads
    built through a cache are read-only.  No lock is needed: a payload is
    computed from the entries it reads, and concurrent callers only race
    on which of their entry maps the next call starts from.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[object, dict, str]] = {}

    def payload(self, report: ToolReport) -> EncodedPayload:
        previous = self._entries
        current: dict[int, tuple[object, dict, str]] = {}
        texts: dict[int, str] = {}

        def items(findings, item_payload) -> list[dict]:
            dicts, parts = [], []
            for finding in findings:
                entry = previous.get(id(finding))
                if entry is None:
                    item = item_payload(finding)
                    entry = (finding, item, json.dumps(item))
                current[id(finding)] = entry
                dicts.append(entry[1])
                parts.append(entry[2])
            texts[id(dicts)] = "[" + ", ".join(parts) + "]"
            return dicts

        payload = _assemble_payload(report, items)
        self._entries = current
        fields = []
        for key, value in payload.items():
            text = texts.get(id(value))
            fields.append(f"{json.dumps(key)}: {json.dumps(value) if text is None else text}")
        return EncodedPayload(payload, "{" + ", ".join(fields) + "}")


def render_report_payload(payload: dict) -> str:
    """The DogmaModeler-style text rendering of a report payload.

    Used by :meth:`ToolReport.render` locally and by the remote CLI path
    (which only ever sees the JSON shape) — one renderer, no drift.
    """
    lines = [f"Validation of schema '{payload['schema']}'"]
    lines.append("=" * len(lines[0]))
    violations = payload["violations"]
    if violations:
        lines.append(f"UNSATISFIABLE: {len(violations)} violation(s)")
        for violation in violations:
            lines.append(f"  [{violation['pattern']}] {violation['message']}")
    else:
        lines.append("No unsatisfiability pattern fired.")
    if payload["advisories"]:
        lines.append(f"{len(payload['advisories'])} structural advisory(ies):")
        for advisory in payload["advisories"]:
            lines.append(f"  [{advisory['code']}] {advisory['message']}")
    if payload["formation_rules"]:
        relevant = sum(1 for f in payload["formation_rules"] if f["relevant"])
        style_only = len(payload["formation_rules"]) - relevant
        lines.append(
            f"{relevant} relevant formation-rule finding(s), {style_only} style-only:"
        )
        for finding in payload["formation_rules"]:
            marker = "!" if finding["relevant"] else "·"
            lines.append(f"  {marker} [{finding['rule']}] {finding['message']}")
    if "propagated" in payload:
        propagated = payload["propagated"]
        derived = propagated["derived"]
        lines.append(
            f"Propagation: {len(propagated['direct_roles'])}+"
            f"{len(propagated['direct_types'])} direct, "
            f"{len(derived)} derived unsatisfiable element(s)"
        )
        for item in derived:
            lines.append(f"  {item['kind']} '{item['element']}' — {item['via']}")
    return "\n".join(lines)


def report_from_engine(
    engine: IncrementalEngine, settings: ValidatorSettings
) -> ToolReport:
    """Assemble a :class:`ToolReport` from a (refreshed) engine's stores,
    exposing exactly the families the settings enable.

    Shared by :class:`Validator` and the multi-session
    :class:`repro.server.ValidationService` so both render identical
    reports from the same engine state.
    """
    return ToolReport(
        schema_name=engine.schema.metadata.name,
        pattern_report=engine.report(),
        advisories=engine.advisories() if settings.wellformedness else [],
        rule_findings=engine.rule_findings() if settings.formation_rules else [],
        propagation=engine.propagation() if settings.propagation else None,
    )


def reference_validate(
    schema: Schema, settings: ValidatorSettings | None = None
) -> ToolReport:
    """From-scratch analysis of ``schema`` under ``settings``.

    The **testing reference**: every enabled family is recomputed over the
    whole schema with no engine state involved.  The equivalence property
    tests (``tests/patterns/test_incremental.py``,
    ``tests/server/test_service.py``) and the benchmark baseline compare
    the incremental engine against this; it is deliberately not reachable
    from :class:`ValidatorSettings` or the CLI any more.
    """
    settings = settings or ValidatorSettings()
    started = time.perf_counter()
    pattern_report = PatternEngine(enabled=tuple(settings.enabled_ids())).check(schema)
    report = ToolReport(
        schema_name=schema.metadata.name,
        pattern_report=pattern_report,
        advisories=check_wellformedness(schema) if settings.wellformedness else [],
        rule_findings=(
            check_formation_rules(schema) if settings.formation_rules else []
        ),
        propagation=(
            propagate(schema, pattern_report) if settings.propagation else None
        ),
    )
    report.elapsed_seconds = time.perf_counter() - started
    return report


class Validator:
    """One-call validation of a schema under configurable settings.

    The validator keeps one :class:`IncrementalEngine` attached to the
    last-validated schema object, configured with exactly the enabled
    analysis families: repeatedly validating the *same* (mutating) schema —
    the :class:`repro.tool.session.ModelingSession` loop — only pays for
    the edits made since the previous call, for patterns, advisories,
    formation rules and propagation alike.  Validating a different schema
    object, or changing any setting, transparently rebuilds the engine.
    """

    def __init__(self, settings: ValidatorSettings | None = None) -> None:
        self.settings = settings or ValidatorSettings()
        self._incremental: IncrementalEngine | None = None
        self._engine_key: tuple | None = None

    def validate(self, schema: Schema) -> ToolReport:
        """Run every enabled analysis over ``schema``."""
        started = time.perf_counter()
        report = report_from_engine(self._engine_for(schema), self.settings)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _engine_for(self, schema: Schema) -> IncrementalEngine:
        """The engine attached to ``schema`` under the current settings,
        rebuilt when the schema object or any toggle changed."""
        key = self.settings.family_key()
        engine = self._incremental
        if engine is None or engine.schema is not schema or self._engine_key != key:
            engine = IncrementalEngine(
                schema,
                enabled=tuple(self.settings.enabled_ids()),
                advisories=self.settings.wellformedness,
                formation_rules=self.settings.formation_rules,
                propagation=self.settings.propagation,
            )
            self._incremental = engine
            self._engine_key = key
            return engine
        engine.refresh()
        return engine
