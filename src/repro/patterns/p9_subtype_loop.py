"""Pattern 9 — Loops in the subtype relation (paper Fig. 13).

ORM subtype populations are *strict* subsets of their supertype populations
[H01].  On a subtype cycle each population would be a strict subset of
itself — impossible for any population, empty or not — so every type on the
cycle is unsatisfiable.  (Contrast with *subset constraints* between roles,
which are non-strict: a subset-constraint loop merely forces equality, which
is why RIDL-A's rule S2 is not an unsatisfiability rule — paper Sec. 3.)

The appendix formulation is ``T ∈ T.Supers``; we additionally group the
affected types by cycle so one diagnostic names the whole loop instead of
emitting one message per member.
"""

from __future__ import annotations

from repro._util import comma_join, stable_sorted_names
from repro.orm.schema import Schema
from repro.patterns.base import TYPE, Pattern


class SubtypeLoopPattern(Pattern):
    """Detect cycles in the subtype graph.

    The natural check site is a whole cycle (one diagnostic per loop), so
    this pattern overrides :meth:`check_scoped` directly: site keys are the
    frozen cycle-member sets.  Any new cycle necessarily passes through a
    freshly-edited subtype edge, so scoped runs only need to start from the
    scope's vertically-closed ``graph_types``.
    """

    pattern_id = "P9"
    name = "Loops in subtypes"
    description = (
        "Subtype populations are strict subsets of their supertypes'; a "
        "subtype cycle would make a population a strict subset of itself."
    )

    def check_scoped(self, schema: Schema, scope=None):
        if scope is None:
            candidates = schema.object_type_names()
        else:
            candidates = [
                name for name in sorted(scope.graph_types) if schema.has_object_type(name)
            ]
        results = {}
        reported: set[str] = set()
        for type_name in candidates:
            if type_name in reported or type_name not in schema.supertypes(type_name):
                continue
            # Every member of this type's cycle component: types that are both
            # above and below it in the subtype graph.
            cycle = {
                other
                for other in schema.supertypes(type_name)
                if type_name in schema.supertypes(other) or other == type_name
            }
            cycle.add(type_name)
            reported.update(cycle)
            names = tuple(stable_sorted_names(cycle))
            results[frozenset(cycle)] = (
                self._violation(
                    message=(
                        f"the subtype(s) {comma_join(names)} form a loop in the "
                        "subtype relation; strict-subset semantics makes every "
                        "type on the loop unsatisfiable"
                    ),
                    types=names,
                ),
            )
        return results

    def iter_sites(self, schema: Schema, scope=None):  # pragma: no cover - unused
        raise NotImplementedError("SubtypeLoopPattern overrides check_scoped directly")

    def check_site(self, schema: Schema, site):  # pragma: no cover - unused
        raise NotImplementedError("SubtypeLoopPattern overrides check_scoped directly")

    def site_dirty(self, key, scope, schema: Schema) -> bool:
        members = key if isinstance(key, frozenset) else frozenset()
        if any(not schema.has_object_type(name) for name in members):
            return True
        return any(name in scope.graph_types for name in members)

    def site_tokens(self, key, schema: Schema):
        return [(TYPE, name) for name in key]
