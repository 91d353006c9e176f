"""The benchmark's own tests: input determinism, coverage and arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from inputs import PATTERNS, apply_edit, replay, small_session  # noqa: E402
from loadgen import backlog_growing, percentile  # noqa: E402
from oracle import canonical, same_report  # noqa: E402
from repro.io.dsl import write_schema  # noqa: E402
from repro.server.service import EDIT_VERBS  # noqa: E402
from repro.tool.validator import reference_validate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _script_bytes(name: str, seed: int, seconds: float) -> bytes:
    sessions, rungs = WORKLOADS[name].plan(seed, seconds)
    body = {
        "dsl": [spec.dsl for spec in sessions],
        "rungs": [
            [[item.due, item.session, item.kind, item.edit, item.edits_before] for item in rung]
            for rung in rungs
        ],
    }
    return json.dumps(body, sort_keys=True).encode()


@pytest.mark.parametrize("name", ["modelers", "durable_router"])
def test_same_seed_gives_byte_identical_inputs(name):
    assert _script_bytes(name, 5, 2.0) == _script_bytes(name, 5, 2.0)
    assert _script_bytes(name, 5, 2.0) != _script_bytes(name, 6, 2.0)


def test_large_schema_inputs_are_deterministic():
    first = WORKLOADS["large_schema"].sessions(3)[0].dsl
    assert first == WORKLOADS["large_schema"].sessions(3)[0].dsl
    assert replay(first, []).element_count() > 2500


def test_edit_stream_covers_every_verb_and_pattern():
    dsl, generator = small_session(11, "cover", start=30, low=60, high=120)
    edits = generator.take(1500)
    assert {verb for verb, _, _ in edits} == set(EDIT_VERBS)
    # Planted faults make every pattern family fire along the stream.
    shadow = replay(dsl, [])
    fired = set()
    for step, edit in enumerate(edits):
        apply_edit(shadow, edit)
        if step % 25 == 0:
            report = reference_validate(shadow).pattern_report
            fired |= {violation.pattern_id for violation in report.violations}
    assert set(PATTERNS) <= fired


def test_replayed_edits_rebuild_the_shadow():
    dsl, generator = small_session(12, "shadow", start=40, low=60, high=90)
    edits = generator.take(200)
    rebuilt = replay(dsl, edits)
    assert write_schema(rebuilt) == write_schema(generator.schema)


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0], 0) == 1.0
    assert percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_backlog_growing_detects_linear_queue_growth():
    dues = [i * 0.01 for i in range(400)]
    steady = [due + 0.005 for due in dues]
    assert not backlog_growing(dues, steady, limit_s=0.1)
    # Service slower than arrivals: each start lags further behind.
    growing = [due + i * 0.001 for i, due in enumerate(dues)]
    assert backlog_growing(dues, growing, limit_s=0.1)
    assert not backlog_growing(dues[:4], growing[:4], limit_s=0.1)


def test_report_comparison_is_multiset_equality():
    first = {"schema": "a", "violations": [{"p": 1}, {"p": 2}], "advisories": []}
    reordered = {"schema": "b", "violations": [{"p": 2}, {"p": 1}], "advisories": []}
    duplicated = {"schema": "a", "violations": [{"p": 1}, {"p": 1}], "advisories": []}
    assert same_report(first, reordered)
    assert not same_report(first, duplicated)
    assert canonical({"x": [2, 1]}) == canonical({"x": [1, 2]})
