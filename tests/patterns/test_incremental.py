"""Incremental-vs-full equivalence for the dependency-indexed engine.

The contract under test (see :mod:`repro.patterns.incremental`): after any
sequence of schema edits — additions *and* removals — the cumulative state
of :class:`IncrementalEngine` equals the corresponding from-scratch
analysis for **every family**: the pattern report equals
:meth:`PatternEngine.check` as a multiset of violations, the advisory and
formation-rule stores equal :func:`check_wellformedness` /
:func:`check_formation_rules`, and the maintained propagation fixpoint
equals :func:`propagate` — including the retraction of findings whose
anchor elements were touched or deleted.
"""

import gc
import itertools
import random
from collections import Counter

import pytest

from repro.exceptions import SchemaError
from repro.orm.schema import Schema
from repro.orm.wellformed import check_wellformedness
from repro.patterns import IncrementalEngine, PatternEngine, check_formation_rules
from repro.patterns.propagation import propagate
from repro.workloads.figures import build_figure
from repro.tool.validator import ValidatorSettings, reference_validate, report_from_engine
from repro.workloads.generator import (
    GeneratorConfig,
    apply_random_edit,
    generate_faulty_schema,
    generate_schema,
    inject_fault,
    random_edit_script,
)


def assert_reports_match(incremental, full, context=""):
    assert Counter(incremental.violations) == Counter(full.violations), context
    assert incremental.is_satisfiable == full.is_satisfiable
    assert set(incremental.unsatisfiable_roles()) == set(full.unsatisfiable_roles())
    assert set(incremental.unsatisfiable_types()) == set(full.unsatisfiable_types())


def assert_families_match(engine, schema, full_report, context=""):
    """Advisories, rule findings and propagation equal from-scratch runs."""
    assert Counter(engine.advisories()) == Counter(check_wellformedness(schema)), context
    assert Counter(engine.rule_findings()) == Counter(
        check_formation_rules(schema)
    ), context
    incremental = engine.propagation()
    full = propagate(schema, full_report)
    assert incremental.direct_roles == full.direct_roles, context
    assert incremental.direct_types == full.direct_types, context
    assert incremental.all_unsat_roles() == full.all_unsat_roles(), context
    assert incremental.all_unsat_types() == full.all_unsat_types(), context


def all_families_engine(schema, **kwargs):
    return IncrementalEngine(
        schema,
        advisories=True,
        formation_rules=True,
        propagation=True,
        **kwargs,
    )


class TestRandomEditScripts:
    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence_after_every_step(self, seed):
        rng = random.Random(seed)
        schema = generate_schema(
            GeneratorConfig(num_types=6, num_facts=5, seed=seed)
        )
        engine = IncrementalEngine(schema, include_extensions=True)
        full = PatternEngine(include_extensions=True)
        assert_reports_match(engine.report(), full.check(schema), "initial")
        for step in range(40):
            action = apply_random_edit(schema, rng)
            assert_reports_match(
                engine.refresh(),
                full.check(schema),
                f"seed {seed} step {step}: {action}",
            )

    @pytest.mark.parametrize("seed", (100, 101, 102))
    def test_equivalence_additions_only(self, seed):
        rng = random.Random(seed)
        schema = Schema(f"adds-{seed}")
        engine = IncrementalEngine(schema, include_extensions=True)
        full = PatternEngine(include_extensions=True)
        for step in range(35):
            action = apply_random_edit(schema, rng, allow_removals=False)
            assert_reports_match(
                engine.refresh(),
                full.check(schema),
                f"seed {seed} step {step}: {action}",
            )

    def test_random_edit_script_returns_descriptions(self):
        rng = random.Random(1)
        schema = Schema("script")
        log = random_edit_script(schema, rng, 10)
        assert len(log) == 10
        assert all(isinstance(entry, str) and entry for entry in log)

    def test_batched_refresh_equivalence(self):
        # Several edits between refreshes must merge into one consistent scope.
        rng = random.Random(7)
        schema = generate_schema(GeneratorConfig(num_types=5, num_facts=4, seed=7))
        engine = IncrementalEngine(schema, include_extensions=True)
        full = PatternEngine(include_extensions=True)
        for batch in range(12):
            for _ in range(4):
                apply_random_edit(schema, rng)
            assert_reports_match(engine.refresh(), full.check(schema), f"batch {batch}")

    def test_figures_as_incremental_baselines(self):
        # Attaching an engine to a pre-built figure schema and editing it
        # further must stay equivalent too.
        for name in ("fig1_phd_student", "fig6_value_exclusion_frequency"):
            schema = build_figure(name)
            engine = IncrementalEngine(schema)
            full = PatternEngine()
            assert_reports_match(engine.report(), full.check(schema), name)
            rng = random.Random(13)
            for step in range(15):
                action = apply_random_edit(schema, rng)
                assert_reports_match(
                    engine.refresh(), full.check(schema), f"{name} step {step}: {action}"
                )


class TestRetraction:
    def test_constraint_removal_retracts_violation(self):
        schema = Schema("retract-p7")
        schema.add_entity_type("A")
        schema.add_entity_type("B")
        schema.add_fact_type("f", "r1", "A", "r2", "B")
        schema.add_uniqueness("r1", label="u1")
        engine = IncrementalEngine(schema)
        assert engine.report().is_satisfiable
        schema.add_frequency("r1", 2, 5, label="fc1")
        report = engine.refresh()
        assert [v.pattern_id for v in report.violations] == ["P7"]
        schema.remove_constraint("fc1")
        assert engine.refresh().is_satisfiable
        assert_reports_match(engine.report(), PatternEngine().check(schema))

    def test_subtype_link_removal_retracts_loop(self):
        schema = Schema("retract-p9")
        for name in ("A", "B", "C"):
            schema.add_entity_type(name)
        schema.add_subtype("A", "B")
        schema.add_subtype("B", "C")
        engine = IncrementalEngine(schema)
        assert engine.report().is_satisfiable
        schema.add_subtype("C", "A")  # close the loop
        report = engine.refresh()
        assert [v.pattern_id for v in report.violations] == ["P9"]
        assert set(report.violations[0].types) == {"A", "B", "C"}
        schema.remove_subtype("C", "A")
        assert engine.refresh().is_satisfiable

    def test_fact_removal_cascades_and_retracts(self):
        schema = Schema("retract-cascade")
        schema.add_entity_type("A")
        schema.add_entity_type("B", values=["b1"])
        schema.add_fact_type("f", "r1", "A", "r2", "B")
        schema.add_frequency("r1", 3, None, label="fc")  # P4: pool of 1
        engine = IncrementalEngine(schema)
        assert not engine.report().is_satisfiable
        schema.remove_fact_type("f")
        assert engine.refresh().is_satisfiable
        assert_reports_match(engine.report(), PatternEngine().check(schema))

    def test_object_type_removal_retracts_everything(self):
        schema = Schema("retract-type")
        for name in ("Top", "Left", "Right", "Both"):
            schema.add_entity_type(name)
        schema.add_subtype("Left", "Top")
        schema.add_subtype("Right", "Top")
        schema.add_subtype("Both", "Left")
        schema.add_subtype("Both", "Right")
        schema.add_exclusive_types("Left", "Right", label="x")
        engine = IncrementalEngine(schema)
        assert [v.pattern_id for v in engine.report().violations] == ["P2"]
        schema.remove_object_type("Both")
        assert engine.refresh().is_satisfiable
        assert_reports_match(engine.report(), PatternEngine().check(schema))

    def test_violation_grows_with_new_fact_on_doomed_subtree(self):
        # X2's element list must track facts added on a subtype *after* the
        # violation first fired (member-ancestor dirtiness).
        schema = Schema("x2-grows")
        schema.add_entity_type("Empty", values=[])
        schema.add_entity_type("Sub")
        schema.add_entity_type("Other")
        schema.add_subtype("Sub", "Empty")
        engine = IncrementalEngine(schema, include_extensions=True)
        before = [v for v in engine.report().violations if v.pattern_id == "X2"]
        assert before and before[0].roles == ()
        schema.add_fact_type("f", "r1", "Sub", "r2", "Other")
        after = [v for v in engine.refresh().violations if v.pattern_id == "X2"]
        assert after and set(after[0].roles) == {"r1", "r2"}
        assert_reports_match(
            engine.report(), PatternEngine(include_extensions=True).check(schema)
        )


class TestEngineBehavior:
    def test_refresh_without_changes_is_cached(self):
        schema = build_figure("fig1_phd_student")
        engine = IncrementalEngine(schema)
        first = engine.refresh()
        assert engine.refresh() is first

    def test_check_rejects_foreign_schema(self):
        engine = IncrementalEngine(Schema("mine"))
        with pytest.raises(ValueError):
            engine.check(Schema("other"))

    def test_enabled_subset_limits_patterns(self):
        schema = build_figure("fig1_phd_student")  # fires P2
        engine = IncrementalEngine(schema, enabled=("P1", "P9"))
        assert engine.report().is_satisfiable
        assert engine.enabled_ids == ("P1", "P9")

    def test_report_is_deterministic(self):
        rng = random.Random(3)
        schema = generate_schema(GeneratorConfig(num_types=6, num_facts=6, seed=3))
        engine = IncrementalEngine(schema, include_extensions=True)
        for _ in range(20):
            apply_random_edit(schema, rng)
            engine.refresh()
        replay = IncrementalEngine(schema, include_extensions=True)
        assert engine.report().violations == replay.report().violations


class TestUnifiedFamilies:
    """The advisory, formation-rule and propagation families ride the same
    scope/dirty-set machinery as the patterns and must stay exactly
    equivalent to their from-scratch analyses after every edit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_after_every_step(self, seed):
        rng = random.Random(seed)
        schema = generate_schema(GeneratorConfig(num_types=6, num_facts=5, seed=seed))
        engine = all_families_engine(schema, include_extensions=True)
        full = PatternEngine(include_extensions=True)
        assert_families_match(engine, schema, full.check(schema), "initial")
        for step in range(40):
            action = apply_random_edit(schema, rng)
            report = engine.refresh()
            reference = full.check(schema)
            context = f"seed {seed} step {step}: {action}"
            assert_reports_match(report, reference, context)
            assert_families_match(engine, schema, reference, context)

    def test_advisory_retraction_on_deletion(self):
        schema = Schema("w07-retract")
        schema.add_entity_type("Lonely")
        schema.add_entity_type("Busy")
        engine = all_families_engine(schema)
        assert {a.code for a in engine.advisories()} == {"W07"}
        schema.add_fact_type("f", "r1", "Lonely", "r2", "Busy")
        engine.refresh()
        assert engine.advisories() == []  # both types now play roles
        schema.remove_fact_type("f")
        engine.refresh()
        assert {a.elements for a in engine.advisories()} == {("Lonely",), ("Busy",)}

    def test_rule_finding_retraction_on_deletion(self):
        schema = Schema("fr1-retract")
        schema.add_entity_type("A")
        schema.add_entity_type("B")
        schema.add_fact_type("f", "r1", "A", "r2", "B")
        engine = all_families_engine(schema)
        assert engine.rule_findings() == []
        schema.add_frequency("r1", 1, 1, label="fc")
        engine.refresh()
        assert [f.rule_id for f in engine.rule_findings()] == ["FR1"]
        schema.remove_constraint("fc")
        engine.refresh()
        assert engine.rule_findings() == []

    def test_rule_depends_on_co_referencing_constraint(self):
        # FR3's verdict lives on the frequency site but depends on a
        # uniqueness over the same roles; adding/removing the uniqueness
        # must dirty the frequency site through the co-reference closure.
        schema = Schema("fr3-coref")
        schema.add_entity_type("A")
        schema.add_entity_type("B")
        schema.add_fact_type("f", "r1", "A", "r2", "B")
        schema.add_frequency("r1", 2, 5, label="fc")
        engine = all_families_engine(schema)
        assert "FR3" not in {f.rule_id for f in engine.rule_findings()}
        schema.add_uniqueness("r1", label="u")
        engine.refresh()
        assert "FR3" in {f.rule_id for f in engine.rule_findings()}
        schema.remove_constraint("u")
        engine.refresh()
        assert "FR3" not in {f.rule_id for f in engine.rule_findings()}

    def test_propagation_retracts_with_its_seed(self):
        schema = Schema("prop-retract")
        schema.add_entity_type("A")
        schema.add_entity_type("B", values=["b1"])
        schema.add_entity_type("Sub")
        schema.add_fact_type("f", "r1", "A", "r2", "B")
        schema.add_subtype("Sub", "A")
        schema.add_fact_type("g", "r3", "Sub", "r4", "B")
        schema.add_mandatory("r1", label="m")
        engine = all_families_engine(schema)
        assert engine.propagation().all_unsat_roles() == set()
        schema.add_frequency("r1", 3, None, label="fc")  # P4: pool of 1
        engine.refresh()
        blast = engine.propagation()
        # seed r1/r2; mandatory r1 dooms A, hence Sub, hence r3/r4
        assert blast.all_unsat_types() == {"A", "Sub"}
        assert blast.all_unsat_roles() == {"r1", "r2", "r3", "r4"}
        schema.remove_constraint("fc")
        engine.refresh()
        empty = engine.propagation()
        assert empty.all_unsat_roles() == set()
        assert empty.all_unsat_types() == set()

    def test_propagation_follows_setpath_component_edits(self):
        schema = Schema("prop-setpath")
        for name in ("A", "B"):
            schema.add_entity_type(name)
        schema.add_entity_type("V", values=["v1"])
        schema.add_fact_type("f", "r1", "A", "r2", "V")
        schema.add_fact_type("g", "r3", "A", "r4", "B")
        schema.add_frequency("r1", 2, None, label="fc")  # P4 dooms r1/r2
        engine = all_families_engine(schema)
        assert engine.propagation().all_unsat_roles() == {"r1", "r2"}
        schema.add_subset("r3", "r1", label="sp")  # path into the doomed role
        engine.refresh()
        # r3 empties via the path, and with it its partner r4
        assert engine.propagation().all_unsat_roles() == {"r1", "r2", "r3", "r4"}
        schema.remove_constraint("sp")
        engine.refresh()
        assert engine.propagation().all_unsat_roles() == {"r1", "r2"}

    def test_validator_settings_drive_the_families(self):
        from repro.tool import Validator, ValidatorSettings

        schema = Schema("settings")
        schema.add_entity_type("Lonely")
        settings = ValidatorSettings(formation_rules=True, propagation=True)
        validator = Validator(settings)
        report = validator.validate(schema)
        assert {a.code for a in report.advisories} == {"W07"}
        assert report.propagation is not None
        # same validator, same schema object: incremental path with families
        schema.add_entity_type("Other")
        report = validator.validate(schema)
        assert {a.elements for a in report.advisories} == {("Lonely",), ("Other",)}


class TestJournalCheckpoint:
    def test_refreshed_engine_lets_the_journal_truncate(self):
        schema = Schema("truncate")
        engine = IncrementalEngine(schema)
        for index in range(300):
            schema.add_entity_type(f"T{index}")
            engine.refresh()
        assert schema.journal_size == 300
        assert schema.journal_retained < 300  # checkpointing kicked in

    def test_lagging_consumer_pins_the_journal(self):
        schema = Schema("pinned")
        fast = IncrementalEngine(schema)
        slow = IncrementalEngine(schema)
        for index in range(200):
            schema.add_entity_type(f"T{index}")
            fast.refresh()
        # `slow` has not drained: nothing below its mark may be dropped
        assert schema.journal_low_water() == slow.journal_mark == 0
        assert schema.journal_retained == 200
        slow.refresh()  # draining auto-compacts past the threshold
        assert schema.journal_retained == 0
        assert schema.journal_size == 200  # marks stay monotonically valid

    def test_dead_consumers_do_not_pin(self):
        schema = Schema("gc")
        keep = IncrementalEngine(schema)
        dead = IncrementalEngine(schema)
        for index in range(50):
            schema.add_entity_type(f"T{index}")
        keep.refresh()
        assert schema.journal_low_water() == 0  # dead still registered...
        del dead
        gc.collect()
        assert schema.journal_low_water() == 50  # ...until collected
        assert schema.compact_journal() == 50

    def test_changes_since_truncated_mark_raises(self):
        schema = Schema("raises")
        engine = IncrementalEngine(schema)
        for index in range(10):
            schema.add_entity_type(f"T{index}")
        engine.refresh()
        schema.compact_journal()
        with pytest.raises(SchemaError):
            schema.changes_since(0)
        assert schema.changes_since(10) == ()

    def test_refresh_correct_across_truncation(self):
        # An engine that drains in batches over a truncating journal must
        # still converge to the from-scratch report every time.
        rng = random.Random(42)
        schema = generate_schema(GeneratorConfig(num_types=5, num_facts=4, seed=42))
        engine = all_families_engine(schema, include_extensions=True)
        full = PatternEngine(include_extensions=True)
        for batch in range(30):
            for _ in range(6):
                apply_random_edit(schema, rng)
            report = engine.refresh()
            schema.compact_journal()
            reference = full.check(schema)
            assert_reports_match(report, reference, f"batch {batch}")
            assert_families_match(engine, schema, reference, f"batch {batch}")


#: Every site-based analysis the engine can maintain: the nine patterns,
#: the extensions, the advisories and the formation/RIDL rules.
EVERY_ANALYSIS = (
    *(f"P{index}" for index in range(1, 10)),
    "X1", "X2", "X3",
    *(f"W0{index}" for index in range(1, 8)),
    *(f"FR{index}" for index in range(1, 8)),
    "S1", "S2", "S3",
)
PAPER_PATTERNS = tuple(f"P{index}" for index in range(1, 10))
EVERYTHING = ValidatorSettings(formation_rules=True, propagation=True)
EVERYTHING.enable_extensions()


def plant_rare_sites(schema, serial):
    """Add, under fresh names, what random scripts seldom build: an X3
    disjunctive mandatory whose every branch is excluded with a mandatory
    role, a subset loop (S2) that implies an equality (S3), an empty value
    pool (X2, W01), an FC(1-1) (FR1) and a spanned uniqueness (FR4)."""
    name = f"Z{serial}_"
    player, other = f"{name}P", f"{name}Q"
    schema.add_entity_type(player)
    schema.add_entity_type(other)
    schema.add_entity_type(f"{name}E", values=[])
    for role, partner in (("b1", other), ("b2", other), ("m", other), ("e", f"{name}E")):
        schema.add_fact_type(
            f"{name}{role}f", f"{name}{role}", player, f"{name}{role}q", partner
        )
    schema.add_frequency(f"{name}e", 1, 1)
    schema.add_uniqueness(f"{name}b1")
    schema.add_uniqueness(f"{name}b1", f"{name}b1q")
    schema.add_mandatory(f"{name}m")
    schema.add_mandatory(f"{name}b1", f"{name}b2")
    schema.add_exclusion(f"{name}b1", f"{name}m")
    schema.add_exclusion(f"{name}b2", f"{name}m")
    schema.add_subset(f"{name}b1q", f"{name}b2q")
    schema.add_subset(f"{name}b2q", f"{name}b1q")
    schema.add_equality(f"{name}b1q", f"{name}b2q")


def faulty_schema(seed):
    schema, _ = generate_faulty_schema(
        GeneratorConfig(num_types=6, num_facts=5, seed=seed), PAPER_PATTERNS
    )
    plant_rare_sites(schema, 0)
    return schema


def settings_engine(schema, settings):
    """An engine over exactly the families ``settings`` enables."""
    return IncrementalEngine(
        schema,
        enabled=tuple(settings.enabled_ids()),
        advisories=settings.wellformedness,
        formation_rules=settings.formation_rules,
        propagation=settings.propagation,
    )


def assert_tool_reports_match(report, reference, context=""):
    assert Counter(report.pattern_report.violations) == Counter(
        reference.pattern_report.violations
    ), context
    assert Counter(report.advisories) == Counter(reference.advisories), context
    assert Counter(report.rule_findings) == Counter(reference.rule_findings), context
    assert (
        report.propagation.all_unsat_roles() == reference.propagation.all_unsat_roles()
    ), context
    assert (
        report.propagation.all_unsat_types() == reference.propagation.all_unsat_types()
    ), context


@pytest.fixture
def audited_retractions(monkeypatch):
    """Check every indexed retraction set against a full scan of the store.

    Wraps the engine's retraction step: the keys the dependency index
    narrowed to must be exactly ``{k for k in store if site_dirty(k)}``.
    Returns the per-analysis count of retracted keys, so tests can show
    they exercised every analysis."""
    retracted = Counter()
    indexed_dirty_keys = IncrementalEngine._dirty_keys

    def audited(engine, check, scope):
        indexed = indexed_dirty_keys(engine, check, scope)
        store = engine._sites[check.pattern_id]
        full_scan = {
            key
            for key in store.findings
            if check.site_dirty(key, scope, engine.schema)
        }
        assert sorted(map(repr, indexed)) == sorted(map(repr, full_scan)), (
            check.pattern_id
        )
        retracted[check.pattern_id] += len(full_scan)
        return indexed

    monkeypatch.setattr(IncrementalEngine, "_dirty_keys", audited)
    return retracted


class TestDependencyIndex:
    """The engine indexes stored sites by their dependency tokens and asks
    ``site_dirty`` only about index hits (contract rule 3 of
    :mod:`repro.patterns.base`); these properties pin that the narrowing
    never drops a dirty key."""

    def test_indexed_retraction_equals_full_scan(self, audited_retractions):
        serials = itertools.count(1)
        for seed in range(8):
            rng = random.Random(seed)
            schema = faulty_schema(seed)
            engine = settings_engine(schema, EVERYTHING)
            for step in range(30):
                for _ in range(rng.choice((1, 1, 2, 3, 6))):
                    draw = rng.random()
                    if draw < 0.05:
                        plant_rare_sites(schema, next(serials))
                    elif draw < 0.15:
                        inject_fault(schema, rng.choice(PAPER_PATTERNS), rng)
                    else:
                        apply_random_edit(schema, rng)
                engine.refresh()
            assert_tool_reports_match(
                report_from_engine(engine, EVERYTHING),
                reference_validate(schema, EVERYTHING),
                f"seed {seed}",
            )
        unexercised = [
            analysis
            for analysis in EVERY_ANALYSIS
            if not audited_retractions[analysis]
        ]
        assert unexercised == []

    @pytest.mark.parametrize("seed", range(6))
    def test_resume_after_stored_sites_vanish(self, audited_retractions, seed):
        """Suspend, remove elements that stored sites name — roles, ring
        pairs, subtype-loop members — then resume and refresh.  The stored
        keys must retract through the tokens recorded when they were
        stored: the head schema no longer has the elements to derive them
        from."""
        rng = random.Random(seed)
        schema = faulty_schema(seed)
        engine = settings_engine(schema, EVERYTHING)
        for _ in range(10):
            apply_random_edit(schema, rng)
        engine.refresh()
        snapshot = engine.suspend()
        del engine
        stored = {
            analysis: list(store.findings) for analysis, store in snapshot.sites.items()
        }
        removed = 0
        for key in stored["P9"]:  # subtype-loop members
            member = sorted(key)[0]
            if schema.has_object_type(member):
                schema.remove_object_type(member)
                removed += 1
        for key in stored["P8"] + stored["X1"]:  # ring pairs
            if schema.has_role(key[0]):
                schema.remove_fact_type(schema.fact_type_of(key[0]).name)
                removed += 1
        for analysis in ("P3", "P4", "P5", "P7", "X3", "FR3", "S2"):
            for label in stored[analysis]:  # roles of constraint sites
                if schema.has_constraint_label(label):
                    role = schema.constraint_by_label(label).referenced_roles()[0]
                    schema.remove_fact_type(schema.fact_type_of(role).name)
                    removed += 1
        for _ in range(5):
            apply_random_edit(schema, rng)
        assert removed >= 5
        resumed = IncrementalEngine.resume(schema, snapshot)
        resumed.refresh()
        assert_tool_reports_match(
            report_from_engine(resumed, EVERYTHING),
            reference_validate(schema, EVERYTHING),
            f"seed {seed}",
        )
        assert sum(audited_retractions.values()) >= removed
