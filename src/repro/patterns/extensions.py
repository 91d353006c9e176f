"""Extension patterns — the paper's Sec. 5 future work, implemented.

The conclusions concede the nine patterns are incomplete and sketch where
to grow them: "E.g., one could demand that for irreflexive roles at least 2
different values need to be present."  This module adds that pattern and
two siblings in the same spirit.  They carry ids ``X1``–``X3`` and are
*disabled by default* (the base engine reproduces the paper's nine); enable
them via ``PatternEngine(include_extensions=True)`` or the validator
settings.

X1 — Ring-Value support
    A ring-constraint combination needs a minimum number of *distinct*
    elements to populate (irreflexivity needs 2; plain symmetry only 1).
    The minimum is computed semantically from the smallest witness relation
    (:func:`repro.rings.algebra.witness`); if the player's value pool is
    smaller, the role pair is unsatisfiable.  This is exactly the paper's
    suggested example, generalized to every combination.

X2 — Empty value pool
    A type whose value constraint lists zero values can never be populated,
    and neither can its subtypes or the roles they play.  (The structural
    advisory W01 warns about the declaration; X2 states the semantic
    consequence as a proper violation.)

X3 — Disjunctive mandatory with all branches excluded
    Pattern 3 only fires on *simple* mandatories (a disjunctive mandatory
    does not force any single role, which is exactly why Fig. 14 is
    satisfiable).  But when **every** branch of a disjunctive mandatory is
    excluded with some simple-mandatory role of the same player, no branch
    remains playable and the player type is unpopulatable — a strictly
    stronger conflict the base nine miss.
"""

from __future__ import annotations

from repro.orm.constraints import MandatoryConstraint
from repro.orm.schema import Schema
from repro.patterns.base import (
    TYPE,
    ConstraintSitePattern,
    Pattern,
    RingPairSitePattern,
    Violation,
)
from repro.rings.algebra import format_combination, is_compatible, witness


def minimum_ring_support(kinds: frozenset) -> int | None:
    """Fewest distinct elements any non-empty witness of ``kinds`` uses.

    ``None`` when the combination is incompatible outright (Pattern 8's
    province).  By the substructure argument the 2-element enumeration is
    exact for existence; for the *minimum* it is exact as well because a
    witness restricted to one of its pairs stays a witness.
    """
    if not is_compatible(kinds):
        return None
    best = witness(kinds)
    assert best is not None
    support = {element for pair in best for element in pair}
    return len(support)


class RingValueSupportPattern(RingPairSitePattern):
    """X1: ring constraints demanding more distinct elements than the pool has."""

    pattern_id = "X1"
    name = "Ring-Value support (Sec. 5 extension)"
    description = (
        "A ring combination that can only be satisfied by relations over k "
        "distinct elements is unsatisfiable when the player's value pool has "
        "fewer than k values (e.g. irreflexivity needs 2)."
    )
    players_sensitive = True  # the value pool is inherited from supertypes

    def check_site(self, schema: Schema, site: tuple[str, str]) -> list[Violation]:
        constraints = schema.ring_constraints_on(site)
        kinds = frozenset(constraint.kind for constraint in constraints)
        if not kinds:
            return []
        needed = minimum_ring_support(kinds)
        if needed is None or needed <= 1:
            return []  # incompatible combos are P8's; support-1 is free
        player = schema.role(site[0]).player
        pool = self._effective_pool(schema, player)
        if pool is None or pool >= needed:
            return []
        labels = tuple(constraint.label or "" for constraint in constraints)
        return [
            self._violation(
                message=(
                    f"the ring constraints {format_combination(kinds)} need at "
                    f"least {needed} distinct '{player}' instances to be "
                    f"populated, but its value constraint admits only {pool} "
                    "value(s)"
                ),
                roles=site,
                constraints=labels,
            )
        ]

    @staticmethod
    def _effective_pool(schema: Schema, type_name: str) -> int | None:
        counts = [
            schema.value_count(candidate)
            for candidate in schema.supertypes_and_self(type_name)
            if schema.value_count(candidate) is not None
        ]
        return min(counts, default=None)


class EmptyValuePoolPattern(Pattern):
    """X2: value constraints with zero values empty the type and its roles.

    Check sites are the empty-pool object types.  The violation's element
    list grows and shrinks with the subtree and the facts its members play
    in, so a site is dirty when it appears in the scope's ``graph_types``
    *or* ``member_types`` (which contains the ancestors of every type whose
    role set changed).
    """

    pattern_id = "X2"
    name = "Empty value pool (Sec. 5 extension)"
    description = (
        "A type with an empty value constraint — directly or via a "
        "supertype — can never be populated; nor can its subtypes or roles."
    )

    def iter_sites(self, schema: Schema, scope=None):
        if scope is None:
            names = schema.object_type_names()
        else:
            names = [
                name
                for name in sorted(scope.graph_types | scope.member_types)
                if schema.has_object_type(name)
            ]
        for name in names:
            object_type = schema.object_type(name)
            if object_type.values is not None and len(object_type.values) == 0:
                yield (name, object_type)

    def site_dirty(self, key, scope, schema: Schema) -> bool:
        if not schema.has_object_type(key):
            return True
        return key in scope.graph_types or key in scope.member_types

    def site_tokens(self, key, schema: Schema):
        return ((TYPE, key),)

    def check_site(self, schema: Schema, site) -> list[Violation]:
        doomed_types = tuple(schema.subtypes_and_self(site.name))
        doomed_roles: list[str] = []
        for type_name in doomed_types:
            for role in schema.roles_played_by(type_name):
                fact = schema.fact_type_of(role.name)
                doomed_roles.extend(fact.role_names)
        return [
            self._violation(
                message=(
                    f"object type '{site.name}' has an empty value "
                    f"constraint; it, its subtype(s) and the fact type(s) they "
                    "play in can never be populated"
                ),
                types=doomed_types,
                roles=tuple(dict.fromkeys(doomed_roles)),
            )
        ]


class DisjunctiveMandatoryExclusionPattern(ConstraintSitePattern):
    """X3: a disjunctive mandatory whose every branch is excluded away.

    Check sites are the disjunctive mandatory constraints; exclusions and
    simple mandatories on the branches co-dirty them via the scope's
    constraint closure, and the player subtype test makes the site
    ``players_sensitive``.
    """

    pattern_id = "X3"
    name = "Disjunctive mandatory fully excluded (Sec. 5 extension)"
    description = (
        "If each alternative of a disjunctive mandatory is exclusive with a "
        "simple-mandatory role of the same player, no alternative can be "
        "played and the player type is unpopulatable."
    )
    constraint_class = MandatoryConstraint
    players_sensitive = True

    def check_site(self, schema: Schema, site: MandatoryConstraint) -> list[Violation]:
        if not site.is_disjunctive:
            return []
        simple_mandatory = schema.mandatory_role_names()
        player = schema.role(site.roles[0]).player
        blockers: list[str] = []
        for branch in site.roles:
            blocker = self._blocking_mandatory(schema, branch, player, simple_mandatory)
            if blocker is None:
                return []
            blockers.append(blocker)
        return [
            self._violation(
                message=(
                    f"object type '{player}' cannot be populated: every "
                    f"alternative of the disjunctive mandatory "
                    f"<{site.label}> is excluded with a mandatory "
                    f"role ({', '.join(sorted(set(blockers)))})"
                ),
                types=(player,),
                roles=tuple(
                    role for role in site.roles if schema.role(role).player == player
                ),
                constraints=(site.label or "",),
            )
        ]

    @staticmethod
    def _blocking_mandatory(schema, branch, player, simple_mandatory):
        """A simple-mandatory role of ``player`` (or a supertype) that is
        excluded with ``branch``, or None."""
        from repro.orm.constraints import ExclusionConstraint

        for exclusion in schema.constraints_referencing_role(branch):
            if not isinstance(exclusion, ExclusionConstraint):
                continue
            if not exclusion.is_role_exclusion:
                continue
            roles = exclusion.single_roles()
            for other in roles:
                if other == branch or other not in simple_mandatory:
                    continue
                other_player = schema.role(other).player
                if player in schema.subtypes_and_self(other_player):
                    return other
        return None


#: The extension patterns, in id order.
EXTENSION_PATTERNS: tuple[Pattern, ...] = (
    RingValueSupportPattern(),
    EmptyValuePoolPattern(),
    DisjunctiveMandatoryExclusionPattern(),
)

#: Their ids.
EXTENSION_IDS: tuple[str, ...] = tuple(p.pattern_id for p in EXTENSION_PATTERNS)
