"""Seeded inputs for the benchmark: wire edit scripts and large schemas.

Everything the server receives is generated here from the run's seed.  An
edit is drawn against a *shadow* :class:`~repro.orm.schema.Schema` kept by
the benchmark and applied to it with the same Schema mutator the service
uses, so every generated edit is valid when it reaches the server, and the
shadow is the oracle's copy of what the server should hold.

The edit mix covers all sixteen session verbs of
:data:`repro.server.service.EDIT_VERBS` (cascading removals included) and
plants, on a schedule, short edit sequences that trigger each of the
paper's nine patterns P1-P9; removals lean towards the constraints of those
planted faults, so violations are both added and resolved.
"""

from __future__ import annotations

import random
from typing import Any

from repro.exceptions import ReproError
from repro.io.dsl import parse_schema, write_schema
from repro.orm.constraints import RingKind
from repro.orm.schema import Schema
from repro.server.service import EDIT_VERBS
from repro.workloads.generator import GeneratorConfig, generate_faulty_schema

#: One wire edit: ``(verb, args, kwargs)``, JSON-ready.
Edit = tuple[str, list[Any], dict[str, Any]]

PATTERNS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9")
#: Stem of every name an edit stream creates; generated schemas use none
#: starting with it, so fresh names never collide with theirs.
PREFIX = "w"
#: The patterns whose planted faults need no value pool (P4 and P5 do).
POOL_FREE_PATTERNS = ("P1", "P2", "P3", "P6", "P7", "P8", "P9")

_ADD_VERBS = (
    "add_entity",
    "add_value_type",
    "add_subtype",
    "add_fact",
    "add_mandatory",
    "add_uniqueness",
    "add_frequency",
    "add_exclusion",
    "add_exclusive_types",
    "add_subset",
    "add_equality",
    "add_ring",
)
_REMOVE_VERBS = ("remove_constraint", "remove_subtype", "remove_fact", "remove_entity")


def decode_args(args: list[Any]) -> list[Any]:
    """The server's argument decoding (JSON lists become tuples)."""
    return [tuple(a) if isinstance(a, list) else a for a in args]


def apply_edit(schema: Schema, edit: Edit) -> None:
    """Apply one wire edit to a schema exactly as the service does."""
    verb, args, kwargs = edit
    getattr(schema, EDIT_VERBS[verb])(*decode_args(args), **kwargs)


class ScriptGenerator:
    """A seeded, endless stream of valid wire edits for one session.

    ``low``/``high`` bound the shadow's element count: below ``low`` the
    mix only adds, above ``high`` it leans on removals, in between it is
    mixed.  Fresh names start with :data:`PREFIX`.  With ``local`` set,
    edits only touch elements this stream created, as a modeler extending
    (and fixing) a part of a large schema does.
    """

    def __init__(
        self,
        rng: random.Random,
        schema: Schema,
        *,
        low: int,
        high: int,
        fault_every: int = 6,
        values: bool = True,
        patterns: tuple[str, ...] = PATTERNS,
        local: bool = False,
    ) -> None:
        self.rng = rng
        self.schema = schema
        self.low = low
        self.high = high
        self.fault_every = fault_every
        self.values = values
        self.patterns = patterns
        self.local = local
        self._serial = 0
        self._drawn = 0
        self._pending: list[Edit] = []
        self._fault_labels: list[str] = []
        self._next_pattern = rng.randrange(len(patterns))

    # -- the stream --------------------------------------------------------

    def next_edit(self) -> Edit:
        """Draw one edit, apply it to the shadow and return its wire form."""
        while True:
            if not self._pending:
                self._drawn += 1
                if self._drawn % self.fault_every == 0 and self.schema.element_count() < self.high:
                    pattern = self.patterns[self._next_pattern % len(self.patterns)]
                    self._next_pattern += 1
                    self._pending = self._fault(pattern)
                else:
                    edit = self._draw()
                    if edit is None:
                        continue
                    self._pending = [edit]
            edit = self._pending.pop(0)
            try:
                apply_edit(self.schema, edit)
            except (ReproError, ValueError):
                # Only a random draw can be infeasible (faults use fresh
                # names); drop the rest of its sequence and redraw.
                self._pending.clear()
                continue
            return edit

    def take(self, count: int) -> list[Edit]:
        return [self.next_edit() for _ in range(count)]

    # -- random draws ------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        self._serial += 1
        return f"{PREFIX}{stem}{self._serial}"

    def _label(self) -> dict[str, str]:
        return {"label": self._fresh("c")}

    def _draw(self) -> Edit | None:
        size = self.schema.element_count()
        if size < self.low:
            verb = self.rng.choice(_ADD_VERBS)
        elif size > self.high:
            verb = self.rng.choice(_REMOVE_VERBS + ("remove_constraint",) * 2)
        elif self.rng.random() < 0.3:
            verb = self.rng.choice(_REMOVE_VERBS)
        else:
            verb = self.rng.choice(_ADD_VERBS)
        return getattr(self, "_draw_" + verb)()

    def _own(self, name: str) -> bool:
        return not self.local or name.startswith(PREFIX)

    def _types(self) -> list[str]:
        return [name for name in self.schema.object_type_names() if self._own(name)]

    def _facts(self) -> list[Any]:
        return [fact for fact in self.schema.fact_types() if self._own(fact.name)]

    def _roles(self) -> list[str]:
        return [role for fact in self._facts() for role in fact.role_names]

    def _draw_add_entity(self) -> Edit:
        name = self._fresh("E")
        if self.values and self.rng.random() < 0.3:
            return ("add_entity", [name, [f"{name}v{k}" for k in range(self.rng.randint(1, 3))]], {})
        return ("add_entity", [name], {})

    def _draw_add_value_type(self) -> Edit:
        name = self._fresh("V")
        if not self.values:
            return ("add_value_type", [name], {})
        return ("add_value_type", [name, [f"{name}v{k}" for k in range(self.rng.randint(1, 4))]], {})

    def _draw_add_subtype(self) -> Edit | None:
        types = self._types()
        if len(types) < 2:
            return None
        sub, sup = self.rng.sample(types, 2)
        return ("add_subtype", [sub, sup], {})

    def _draw_add_fact(self) -> Edit | None:
        types = self._types()
        if not types:
            return None
        name = self._fresh("F")
        return (
            "add_fact",
            [name, f"{name}a", self.rng.choice(types), f"{name}b", self.rng.choice(types)],
            {},
        )

    def _role(self) -> str | None:
        roles = self._roles()
        return self.rng.choice(roles) if roles else None

    def _fact_roles(self) -> list[str] | None:
        facts = self._facts()
        return list(self.rng.choice(facts).role_names) if facts else None

    def _draw_add_mandatory(self) -> Edit | None:
        role = self._role()
        return None if role is None else ("add_mandatory", [role], self._label())

    def _draw_add_uniqueness(self) -> Edit | None:
        role = self._role()
        return None if role is None else ("add_uniqueness", [role], self._label())

    def _draw_add_frequency(self) -> Edit | None:
        role = self._role()
        if role is None:
            return None
        low = self.rng.randint(1, 3)
        return ("add_frequency", [role, low, low + self.rng.randint(0, 2)], self._label())

    def _draw_add_exclusion(self) -> Edit | None:
        roles = self._roles()
        if len(roles) < 2:
            return None
        return ("add_exclusion", self.rng.sample(roles, 2), self._label())

    def _draw_add_exclusive_types(self) -> Edit | None:
        types = self._types()
        if len(types) < 2:
            return None
        return ("add_exclusive_types", self.rng.sample(types, 2), self._label())

    def _draw_setcomp(self, verb: str) -> Edit | None:
        facts = self._facts()
        if len(facts) < 2:
            return None
        first, second = self.rng.sample(facts, 2)
        return (verb, [list(first.role_names), list(second.role_names)], self._label())

    def _draw_add_subset(self) -> Edit | None:
        return self._draw_setcomp("add_subset")

    def _draw_add_equality(self) -> Edit | None:
        return self._draw_setcomp("add_equality")

    def _draw_add_ring(self) -> Edit | None:
        roles = self._fact_roles()
        if roles is None:
            return None
        kind = self.rng.choice(list(RingKind)).value
        return ("add_ring", [kind, *roles], self._label())

    def _draw_remove_constraint(self) -> Edit | None:
        live = [label for label in self._fault_labels if self.schema.has_constraint_label(label)]
        self._fault_labels = live
        if live and self.rng.random() < 0.5:
            label = self.rng.choice(live)
        else:
            labels = [c.label for c in self.schema.constraints() if self._own(c.label)]
            if not labels:
                return None
            label = self.rng.choice(labels)
        return ("remove_constraint", [label], {})

    def _draw_remove_subtype(self) -> Edit | None:
        links = [
            link
            for link in self.schema.subtype_links()
            if self._own(link.sub) and self._own(link.super)
        ]
        if not links:
            return None
        link = self.rng.choice(links)
        return ("remove_subtype", [link.sub, link.super], {})

    def _draw_remove_fact(self) -> Edit | None:
        facts = self._facts()
        return None if not facts else ("remove_fact", [self.rng.choice(facts).name], {})

    def _draw_remove_entity(self) -> Edit | None:
        types = self._types()
        return None if not types else ("remove_entity", [self.rng.choice(types)], {})

    # -- planted faults (one per pattern family) ---------------------------

    def _constraint(self, verb: str, args: list[Any]) -> Edit:
        kwargs = self._label()
        self._fault_labels.append(kwargs["label"])
        return (verb, args, kwargs)

    def _fact(self, first: str, second: str) -> tuple[Edit, str, str]:
        name = self._fresh("F")
        return ("add_fact", [name, f"{name}a", first, f"{name}b", second], {}), f"{name}a", f"{name}b"

    def _fault(self, pattern: str) -> list[Edit]:
        """An edit sequence whose last step makes ``pattern`` fire."""
        rng = self.rng
        if pattern == "P1":
            a, b, child = self._fresh("E"), self._fresh("E"), self._fresh("E")
            return [
                *(("add_entity", [n], {}) for n in (a, b, child)),
                ("add_subtype", [child, a], {}),
                ("add_subtype", [child, b], {}),
            ]
        if pattern == "P2":
            top, left, right, child = (self._fresh("E") for _ in range(4))
            return [
                *(("add_entity", [n], {}) for n in (top, left, right, child)),
                ("add_subtype", [left, top], {}),
                ("add_subtype", [right, top], {}),
                ("add_subtype", [child, left], {}),
                ("add_subtype", [child, right], {}),
                self._constraint("add_exclusive_types", [left, right]),
            ]
        if pattern == "P3":
            player, partner = self._fresh("E"), self._fresh("E")
            fact1, mandatory_role, _ = self._fact(player, partner)
            fact2, excluded_role, _ = self._fact(player, partner)
            return [
                ("add_entity", [player], {}),
                ("add_entity", [partner], {}),
                fact1,
                fact2,
                self._constraint("add_mandatory", [mandatory_role]),
                self._constraint("add_exclusion", [mandatory_role, excluded_role]),
            ]
        if pattern == "P4":
            pool = rng.randint(1, 3)
            player, valued = self._fresh("E"), self._fresh("E")
            fact, role, _ = self._fact(player, valued)
            return [
                ("add_entity", [player], {}),
                ("add_entity", [valued, [f"{valued}v{k}" for k in range(pool)]], {}),
                fact,
                self._constraint("add_frequency", [role, pool + 1, pool + 2]),
            ]
        if pattern == "P5":
            pool = rng.randint(1, 2)
            valued = self._fresh("E")
            edits: list[Edit] = [("add_entity", [valued, [f"{valued}v{k}" for k in range(pool)]], {})]
            roles = []
            for _ in range(pool + 1):
                partner = self._fresh("E")
                fact, role, _ = self._fact(valued, partner)
                edits += [("add_entity", [partner], {}), fact]
                roles.append(role)
            return edits + [self._constraint("add_exclusion", roles)]
        if pattern == "P6":
            left, right = self._fresh("E"), self._fresh("E")
            fact1, a1, b1 = self._fact(left, right)
            fact2, a2, b2 = self._fact(left, right)
            return [
                ("add_entity", [left], {}),
                ("add_entity", [right], {}),
                fact1,
                fact2,
                self._constraint("add_exclusion", [a1, a2]),
                self._constraint("add_subset", [[a1, b1], [a2, b2]]),
            ]
        if pattern == "P7":
            player, partner = self._fresh("E"), self._fresh("E")
            fact, role, _ = self._fact(player, partner)
            low = rng.randint(2, 4)
            return [
                ("add_entity", [player], {}),
                ("add_entity", [partner], {}),
                fact,
                self._constraint("add_uniqueness", [role]),
                self._constraint("add_frequency", [role, low, low + 2]),
            ]
        if pattern == "P8":
            player = self._fresh("E")
            fact, first, second = self._fact(player, player)
            combo = rng.choice([("sym", "ac"), ("sym", "as"), ("sym", "it", "ans")])
            return [
                ("add_entity", [player], {}),
                fact,
                *(self._constraint("add_ring", [kind, first, second]) for kind in combo),
            ]
        cycle = [self._fresh("E") for _ in range(3)]
        return [
            *(("add_entity", [n], {}) for n in cycle),
            *(("add_subtype", [n, cycle[(i + 1) % 3]], {}) for i, n in enumerate(cycle)),
        ]


def small_session(
    seed: int, name: str, *, start: int, low: int, high: int, values: bool = True
) -> tuple[str, ScriptGenerator]:
    """A small modeling session: its opening DSL (``start`` elements built
    by the same edit stream) and the generator that continues it.
    ``values=False`` keeps the session free of value pools: no pooled
    draws, and only the faults of :data:`POOL_FREE_PATTERNS` are planted.
    Every value individual widens the universe of a bounded ``/v1/check``;
    with pools, checks of 30-50 element sessions ranged from 1 ms to 16 s."""
    rng = random.Random(seed)
    shadow = Schema(name)
    generator = ScriptGenerator(
        rng,
        shadow,
        low=low,
        high=high,
        values=values,
        patterns=PATTERNS if values else POOL_FREE_PATTERNS,
    )
    while shadow.element_count() < start:
        generator.next_edit()
    # The DSL carries no constraint labels: continue from the parsed copy,
    # whose generated labels are the ones the server will hold.
    dsl = write_schema(shadow)
    generator.schema = parse_schema(dsl)
    return dsl, generator


def large_session(
    seed: int, name: str, *, types: int, facts: int, dsl: str | None = None
) -> tuple[str, ScriptGenerator]:
    """A large session opened from a schema generated from ``seed`` with
    all nine P1-P9 faults planted (or from ``dsl``, one generated before).
    Its seeded edits touch only elements they created, growing the schema
    by at most 80 elements."""
    if dsl is None:
        schema, _ = generate_faulty_schema(
            GeneratorConfig(num_types=types, num_facts=facts, seed=seed), PATTERNS
        )
        schema.metadata.name = name
        dsl = write_schema(schema)
    shadow = parse_schema(dsl)
    size = shadow.element_count()
    generator = ScriptGenerator(
        random.Random(seed), shadow, low=size, high=size + 80, fault_every=4, local=True
    )
    return dsl, generator


def replay(dsl: str, edits: list[Edit]) -> Schema:
    """The shadow schema after ``edits`` on top of an opening DSL."""
    schema = parse_schema(dsl)
    for edit in edits:
        apply_edit(schema, edit)
    return schema
