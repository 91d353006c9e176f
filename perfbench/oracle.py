"""Output oracle: what the server answered against what it should have.

* A session's report must be multiset-equal to
  :func:`repro.tool.validator.reference_validate` on the benchmark's
  shadow of that session (opening DSL + every acknowledged edit).
* A sampled ``/v1/check`` verdict must equal a cold
  :class:`repro.reasoner.BoundedModelFinder` on the shadow as it was when
  the check was due.
* After a crash, every session's report must equal its pre-crash one.
"""

from __future__ import annotations

import json
from typing import Any

from inputs import Edit, replay
from loadgen import CHECK_DOMAIN
from repro.reasoner import BoundedModelFinder
from repro.server.protocol import report_to_payload
from repro.tool.validator import reference_validate


def canonical(value: Any) -> Any:
    """A form in which every list compares as a multiset."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted(json.dumps(canonical(item), sort_keys=True) for item in value)
    return value


def same_report(got: dict[str, Any], expected: dict[str, Any]) -> bool:
    """Multiset equality of two report payloads, ignoring the schema name
    (a session's schema is named after the session on some paths)."""
    got = {key: value for key, value in got.items() if key != "schema"}
    expected = {key: value for key, value in expected.items() if key != "schema"}
    return canonical(got) == canonical(expected)


def expected_report(dsl: str, edits: list[Edit]) -> dict[str, Any]:
    """From-scratch report of the shadow schema."""
    return report_to_payload(reference_validate(replay(dsl, edits)))


def expected_verdict(dsl: str, edits: list[Edit]) -> str:
    """Cold bounded check of the shadow schema (strong goal)."""
    return BoundedModelFinder(replay(dsl, edits)).check("strong", max_domain=CHECK_DOMAIN).status
