"""Pattern 1 — Top common supertype (paper Fig. 2).

In ORM all object types are mutually exclusive by default, *except* those
sharing a common supertype.  A subtype with several direct supertypes is the
intersection of their populations; if those supertypes share no common
(transitive) supertype they are disjoint by the default, so the subtype can
never be populated.

Formally (paper Sec. 2): for a subtype ``T`` with direct supertypes
``D1..Dn`` (n > 1), if ``supers*(D1) ∩ ... ∩ supers*(Dn) = ∅`` — where
``supers*`` includes the type itself — then ``T`` is unsatisfiable.
Including the type itself is what makes the one-level case work: for
``A, B`` both top-level, ``supers*(A) = {A}`` and ``supers*(B) = {B}``
intersect emptily, while ``A`` and a shared top ``S`` give ``{A, S}`` and
``{B, S}``.
"""

from __future__ import annotations

from repro._util import comma_join, stable_sorted_names
from repro.orm.schema import Schema
from repro.patterns.base import TYPE, Pattern, Violation


class TopCommonSupertypePattern(Pattern):
    """Detect subtypes whose direct supertypes share no top common supertype.

    Check sites are object types; a site's verdict depends only on the
    subtype graph *above* it, so a scope dirties it exactly when the type is
    in the scope's vertically-closed ``graph_types``.
    """

    pattern_id = "P1"
    name = "Top common supertype"
    description = (
        "A subtype with several supertypes is unsatisfiable when those "
        "supertypes do not share a common supertype (unrelated types are "
        "mutually exclusive in ORM)."
    )

    def iter_sites(self, schema: Schema, scope=None):
        if scope is None:
            names = schema.object_type_names()
        else:
            names = [
                name for name in sorted(scope.graph_types) if schema.has_object_type(name)
            ]
        for name in names:
            yield (name, name)

    def site_dirty(self, key, scope, schema: Schema) -> bool:
        return key in scope.graph_types or not schema.has_object_type(key)

    def site_tokens(self, key, schema: Schema):
        return ((TYPE, key),)

    def check_site(self, schema: Schema, site: str) -> list[Violation]:
        direct_supers = schema.direct_supertypes(site)
        if len(direct_supers) < 2:
            return []
        lines = [set(schema.supertypes_and_self(sup)) for sup in direct_supers]
        common = set.intersection(*lines)
        if common:
            return []
        return [
            self._violation(
                message=(
                    f"the subtype '{site}' cannot be satisfied: its "
                    f"supertypes {comma_join(stable_sorted_names(direct_supers))} "
                    "do not share a top common supertype, so they are mutually "
                    "exclusive"
                ),
                types=(site,),
            )
        ]
