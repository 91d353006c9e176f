"""Pattern infrastructure: violations, reports, and the pattern interface.

Each of the paper's nine patterns becomes a :class:`Pattern` subclass whose
:meth:`Pattern.check` returns :class:`Violation` objects.  A violation names
the unsatisfiable roles and object types, the constraints that jointly cause
the contradiction, and carries a DogmaModeler-style explanatory message —
the paper stresses (Sec. 4) that the tool "does not only detect unsatisfiable
ORM models, but also ... gives details about the detected problems".

Site-based checking
-------------------
Every pattern decomposes its work into independent **check sites** — the
schema elements its outer loop visits (an object type for Pattern 1, an
exclusion constraint for Pattern 3, a ring role-pair for Pattern 8, ...).
The site decomposition is what makes *incremental* validation possible:

* :meth:`Pattern.iter_sites` enumerates ``(site_key, site)`` pairs, either
  for the whole schema (``scope=None``) or restricted to the sites a
  :class:`repro.patterns.incremental.CheckScope` marks as dirty;
* :meth:`Pattern.check_site` produces the violations of one site;
* :meth:`Pattern.site_dirty` decides whether a previously-checked site key
  must be retracted and re-examined under a scope.

* :meth:`Pattern.site_tokens` names what can dirty a stored site key —
  the constraint labels, roles and object types (:data:`LABEL`,
  :data:`ROLE`, :data:`TYPE` tokens) whose presence in a scope can make
  ``site_dirty`` true.

The contract between the four (relied on by
:class:`repro.patterns.incremental.IncrementalEngine`) is:

1. a site's verdict can only change when ``site_dirty`` says so,
2. every *existing* dirty site is enumerated by ``iter_sites`` under that
   scope (vanished sites are covered by ``site_dirty`` returning True), and
3. ``site_dirty(k) ⇒ site_tokens(k) ∩ scope tokens ≠ ∅``, where
   ``site_tokens(k)`` is computed against the schema *as it was when k was
   stored* and the scope tokens are
   :meth:`repro.patterns.incremental.CheckScope.tokens`.  The engine
   indexes stored keys by their tokens and asks ``site_dirty`` only about
   index hits, so a token a site forgets to name is a finding that never
   retracts.

``Pattern.check(schema)`` — the historical full-schema entry point — is the
degenerate case ``scope=None`` and behaves exactly as before.

The site methods are deliberately finding-type agnostic: the same interface
drives the nine unsatisfiability patterns (findings are
:class:`Violation`), the structural well-formedness advisories
(:mod:`repro.patterns.advisories`, findings are
:class:`repro.orm.wellformed.Advisory`) and the formation-rule analysis
(:mod:`repro.patterns.formation_rules`, findings are
:class:`~repro.patterns.formation_rules.RuleFinding`).  One
:class:`repro.patterns.incremental.IncrementalEngine` maintains the
per-site stores of every enabled analysis family from a single journal
drain.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.orm.constraints import AnyConstraint, RingConstraint
from repro.orm.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.patterns.incremental import CheckScope

#: Dependency-token kinds: a token is ``(kind, name)`` naming a constraint
#: label, a role or an object type (see :meth:`Pattern.site_tokens`).
LABEL = "label"
ROLE = "role"
TYPE = "type"

Token = tuple[str, str]


@dataclass(frozen=True)
class Violation:
    """One detected unsatisfiability.

    Attributes
    ----------
    pattern_id:
        Stable id ``"P1"`` .. ``"P9"`` matching the paper's numbering.
    message:
        Human-readable diagnostic naming the conflicting constraints.
    roles:
        Role names that can never be populated because of this conflict.
    types:
        Object-type names that can never be populated.
    constraints:
        Labels of the constraints jointly responsible.
    joint:
        When True, the listed roles cannot all be populated *together* but
        each may be populatable alone (Pattern 5's "some roles in R cannot
        be satisfied"); when False each listed element is individually
        unpopulatable.
    """

    pattern_id: str
    message: str
    roles: tuple[str, ...] = ()
    types: tuple[str, ...] = ()
    constraints: tuple[str, ...] = ()
    joint: bool = False

    def elements(self) -> tuple[str, ...]:
        """All unsatisfiable elements (types then roles)."""
        return self.types + self.roles

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.pattern_id}] {self.message}"


class Pattern(abc.ABC):
    """Interface of one unsatisfiability-detection pattern.

    Subclasses set the three class attributes and implement the site
    methods (:meth:`iter_sites` / :meth:`check_site` / :meth:`site_dirty` /
    :meth:`site_tokens`), usually via one of the mixin bases below.
    Patterns are stateless; a single instance may be reused across schemas
    and threads.
    """

    #: Stable identifier, e.g. ``"P4"``.
    pattern_id: str = ""
    #: The paper's pattern title, e.g. ``"Frequency-Value"``.
    name: str = ""
    #: One-line description for tool settings (Fig. 15).
    description: str = ""

    def check(self, schema: Schema, scope: "CheckScope | None" = None) -> list[Violation]:
        """Return all violations of this pattern present in ``schema``.

        With ``scope=None`` the whole schema is examined (the classic
        behavior); with a :class:`CheckScope` only the dirty sites are.
        """
        found: list[Violation] = []
        for violations in self.check_scoped(schema, scope).values():
            found.extend(violations)
        return found

    def check_scoped(
        self, schema: Schema, scope: "CheckScope | None" = None
    ) -> dict[Hashable, tuple[Violation, ...]]:
        """Check the (in-scope) sites, keyed by site; empty sites omitted."""
        results: dict[Hashable, tuple[Violation, ...]] = {}
        for key, site in self.iter_sites(schema, scope):
            found = self.check_site(schema, site)
            if found:
                results[key] = tuple(found)
        return results

    @abc.abstractmethod
    def iter_sites(
        self, schema: Schema, scope: "CheckScope | None" = None
    ) -> Iterator[tuple[Hashable, Any]]:
        """Yield ``(site_key, site)`` pairs to examine under ``scope``."""

    @abc.abstractmethod
    def check_site(self, schema: Schema, site: Any) -> list[Violation]:
        """Return the violations of one site."""

    @abc.abstractmethod
    def site_dirty(self, key: Hashable, scope: "CheckScope", schema: Schema) -> bool:
        """Must a previously-stored site key be retracted under ``scope``?

        True also when the site no longer exists in the schema.
        """

    @abc.abstractmethod
    def site_tokens(self, key: Hashable, schema: Schema) -> Iterable[Token]:
        """The tokens whose presence in a scope can dirty a stored site.

        Called when the key is stored, against the schema of that moment
        (the site exists then); contract rule 3 in the module docstring.
        """

    def _violation(
        self,
        message: str,
        roles: tuple[str, ...] = (),
        types: tuple[str, ...] = (),
        constraints: tuple[str, ...] = (),
        joint: bool = False,
    ) -> Violation:
        """Construct a violation tagged with this pattern's id."""
        return Violation(
            pattern_id=self.pattern_id,
            message=message,
            roles=roles,
            types=types,
            constraints=constraints,
            joint=joint,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.pattern_id}: {self.name})"


class ConstraintSitePattern(Pattern):
    """Base for patterns whose sites are constraints of one class.

    Class attributes tune the dirtiness rules:

    ``players_sensitive``
        the verdict also depends on the *players* of the referenced roles
        (their subtype closure or inherited value pools), so a subtype-graph
        change near a player dirties the site;
    ``setcomp_sensitive``
        the verdict depends on the subset/equality graph (Pattern 6, the
        RIDL rules); a set-comparison change dirties exactly the sites
        whose roles live in a touched connected component of that graph
        (:meth:`repro.patterns.incremental.CheckScope.setcomp_closure`).
    """

    constraint_class: type = AnyConstraint  # overridden by subclasses
    players_sensitive: bool = False
    setcomp_sensitive: bool = False

    def iter_sites(
        self, schema: Schema, scope: "CheckScope | None" = None
    ) -> Iterator[tuple[Hashable, Any]]:
        if scope is None:
            for constraint in schema.constraints_of(self.constraint_class):
                yield (constraint.label, constraint)
            return
        seen: set[Hashable] = set()
        for constraint in scope.candidate_constraints(schema):
            if isinstance(constraint, self.constraint_class):
                seen.add(constraint.label)
                yield (constraint.label, constraint)
        if self.setcomp_sensitive and scope.setcomp_dirty:
            # Sites in a touched SetPath component, via the role index.
            for role_name in sorted(scope.setcomp_closure(schema)):
                if not schema.has_role(role_name):
                    continue
                for constraint in schema.constraints_referencing_role(role_name):
                    if (
                        isinstance(constraint, self.constraint_class)
                        and constraint.label not in seen
                    ):
                        seen.add(constraint.label)
                        yield (constraint.label, constraint)

    def site_dirty(self, key: Hashable, scope: "CheckScope", schema: Schema) -> bool:
        if not isinstance(key, str) or not schema.has_constraint_label(key):
            return True  # site vanished; retract unconditionally
        if key in scope.labels:
            return True
        constraint = schema.constraint_by_label(key)
        if self.setcomp_sensitive and scope.setcomp_site_dirty(
            schema, constraint.referenced_roles()
        ):
            return True
        if any(t in scope.graph_types for t in constraint.referenced_types()):
            return True
        if self.players_sensitive and scope.fact_players_dirty(schema, constraint):
            return True
        return False

    def site_tokens(self, key: Any, schema: Schema) -> Iterable[Token]:
        constraint = schema.constraint_by_label(key)
        tokens = {(LABEL, key)}
        tokens.update((TYPE, name) for name in constraint.referenced_types())
        if self.setcomp_sensitive:
            tokens.update((ROLE, name) for name in constraint.referenced_roles())
        if self.players_sensitive:
            for role_name in constraint.referenced_roles():
                for fact_role in schema.fact_type_of(role_name).roles:
                    tokens.add((TYPE, fact_role.player))
        return tokens


class RingPairSitePattern(Pattern):
    """Base for patterns whose sites are ring-constrained role pairs."""

    players_sensitive: bool = False

    def iter_sites(
        self, schema: Schema, scope: "CheckScope | None" = None
    ) -> Iterator[tuple[Hashable, Any]]:
        if scope is None:
            for pair in schema.ring_pairs():
                yield (pair, pair)
            return
        seen: set[tuple[str, ...]] = set()
        for constraint in scope.candidate_constraints(schema):
            if isinstance(constraint, RingConstraint):
                pair = tuple(sorted(constraint.role_pair))
                if pair not in seen:
                    seen.add(pair)
                    yield (pair, pair)

    def site_dirty(self, key: Hashable, scope: "CheckScope", schema: Schema) -> bool:
        roles = key if isinstance(key, tuple) else ()
        if any(not schema.has_role(role) for role in roles):
            return True
        if any(role in scope.roles for role in roles):
            return True
        if not schema.ring_constraints_on((roles[0], roles[1])):
            return True  # every ring constraint on the pair was removed
        if self.players_sensitive and any(
            schema.role(role).player in scope.graph_types for role in roles
        ):
            return True
        return False

    def site_tokens(self, key: Any, schema: Schema) -> Iterable[Token]:
        tokens = [(ROLE, role) for role in key]
        if self.players_sensitive:
            tokens.extend((TYPE, schema.role(role).player) for role in key)
        return tokens


class TypeSitePattern(Pattern):
    """Base for analyses whose sites are the object types themselves.

    A type site is dirty when the type's subtype environment moved
    (``graph_types``) or its role set / value-pool membership changed
    (``member_types``) — the union covers type addition and removal, new or
    removed subtype links, and facts appearing on or vanishing from the
    type.  Used by the well-formedness advisories (W01, W07); none of the
    nine paper patterns needs it (their type reasoning rides on constraint
    sites).
    """

    def iter_sites(
        self, schema: Schema, scope: "CheckScope | None" = None
    ) -> Iterator[tuple[Hashable, Any]]:
        if scope is None:
            for object_type in schema.object_types():
                yield (object_type.name, object_type)
            return
        for name in sorted(scope.graph_types | scope.member_types):
            if schema.has_object_type(name):
                yield (name, schema.object_type(name))

    def site_dirty(self, key: Hashable, scope: "CheckScope", schema: Schema) -> bool:
        if not isinstance(key, str) or not schema.has_object_type(key):
            return True  # site vanished; retract unconditionally
        return key in scope.graph_types or key in scope.member_types

    def site_tokens(self, key: Any, schema: Schema) -> Iterable[Token]:
        return ((TYPE, key),)


@dataclass
class ValidationReport:
    """The outcome of running a set of patterns over a schema."""

    schema_name: str
    violations: list[Violation] = field(default_factory=list)
    patterns_run: tuple[str, ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def is_satisfiable(self) -> bool:
        """True when no pattern fired.

        The patterns are sound but incomplete (paper Sec. 1): ``True`` here
        means "no *common* contradiction found", not a proof of strong
        satisfiability.
        """
        return not self.violations

    def unsatisfiable_roles(self) -> tuple[str, ...]:
        """All role names flagged by any violation, deduplicated."""
        seen: dict[str, None] = {}
        for violation in self.violations:
            for role in violation.roles:
                seen.setdefault(role)
        return tuple(seen)

    def unsatisfiable_types(self) -> tuple[str, ...]:
        """All object-type names flagged by any violation, deduplicated."""
        seen: dict[str, None] = {}
        for violation in self.violations:
            for type_name in violation.types:
                seen.setdefault(type_name)
        return tuple(seen)

    def by_pattern(self) -> dict[str, list[Violation]]:
        """Violations grouped by pattern id (only patterns that fired)."""
        grouped: dict[str, list[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.pattern_id, []).append(violation)
        return grouped

    def messages(self) -> list[str]:
        """All diagnostic messages, prefixed with their pattern id."""
        return [str(violation) for violation in self.violations]

    def summary(self) -> str:
        """One line for logs/UIs: verdict plus counts."""
        if self.is_satisfiable:
            return (
                f"schema '{self.schema_name}': no unsatisfiability pattern fired "
                f"({len(self.patterns_run)} patterns checked)"
            )
        fired = sorted(self.by_pattern())
        return (
            f"schema '{self.schema_name}': {len(self.violations)} violation(s) "
            f"from pattern(s) {', '.join(fired)}; "
            f"{len(self.unsatisfiable_types())} type(s) and "
            f"{len(self.unsatisfiable_roles())} role(s) unsatisfiable"
        )
