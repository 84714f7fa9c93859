"""Seeded inputs and the known values every workload checks.

The program only ever sees what is generated here: concept-file text, argv
and files.  Concepts are built as small expression trees, so the benchmark
can render them to text and also compute their IS counts on its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KINDS = "TECSX"
VARIABLE_POOL = ("m", "r", "t", "d", "s", "g", "a", "o", "n", "k")

# Bindings and formulas of the two shipped concepts (README and paper).
V1_BINDING = {"m": 6, "r": 4, "t": 7, "d": 4, "s": 6, "a": 5}
V2_BINDING = {"m": 6, "r": 4, "d": 4, "s": 4, "g": 9, "o": 7}
KLM_V1_BINDING = {"m": 6, "r": 4, "t": 7, "d": 6, "s": 5, "a": 5}
V1_PUBLISHED_IS = "m + 5 + a*(r + t + d + s + 11)"
V2_PUBLISHED_IS = "m + r + d + s + g + o + 12"
V1_PUBLISHED_KLM = "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T"

# DEFAULT_MAPPING covers Think, Enter and Click only, so a concept with a
# Scroll or External step raises UnmappedActionError under it.  The sweep
# passes this explicit five-kind mapping instead.  The Scroll and External
# rows are a benchmark choice, not a calibrated model.
FULL_MAPPING = {
    "Think": ["Glance"],
    "Enter": ["PointClick"],
    "Click": ["PointClick"],
    "Scroll": ["M", "C_click"],
    "External": ["R", "PointClick"],
}
# Seconds per occurrence of each kind under FULL_MAPPING and the default
# KlmModel: Glance 0.40, PointClick 1.73, M 1.5, C_click 0.23, R 1.2.
KIND_SECONDS = {"T": 0.40, "E": 1.73, "C": 1.73, "S": 1.73, "X": 2.93}


def binding_argv(binding: dict[str, int]) -> list[str]:
    argv = []
    for name, value in binding.items():
        argv += ["--set", f"{name}={value}"]
    return argv


# --- expression trees -------------------------------------------------------
# ("num", n) | ("var", x) | ("add", a, b) | ("sub", a, b) | ("mul", a, b)


def render(node) -> str:
    kind = node[0]
    if kind == "num" or kind == "var":
        return str(node[1])
    left, right = render(node[1]), render(node[2])
    if kind == "add":
        return f"{left} + {right}"
    if kind == "sub":
        return f"{left} - {right}"
    # Parenthesise sums under a product.
    if node[1][0] in ("add", "sub"):
        left = f"({left})"
    if node[2][0] in ("add", "sub"):
        right = f"({right})"
    return f"{left}*{right}"


def value(node, binding: dict[str, int]) -> int:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return binding[node[1]]
    left, right = value(node[1], binding), value(node[2], binding)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    return left * right


def _count_tree(rng: random.Random, pool: list[str]):
    """A nonnegative count of total degree at most 2, never the zero polynomial."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            terms.append(("num", rng.randint(1, 9)))
        elif roll < 0.7:
            terms.append(("var", rng.choice(pool)))
        elif roll < 0.85:
            terms.append(("mul", ("num", rng.randint(2, 9)), ("var", rng.choice(pool))))
        else:
            terms.append(("mul", ("var", rng.choice(pool)), ("var", rng.choice(pool))))
    tree = terms[0]
    for term in terms[1:]:
        tree = ("add", tree, term)
    return tree


def _repeat_tree(rng: random.Random, pool: list[str]):
    """None (repeat 1), a constant, x, x - 1, c*x or a product x*y of two
    distinct variables.  Every form is linear in each variable, which is what
    lets a large binding be sized to a target oracle loop count."""
    roll = rng.random()
    if roll < 0.35:
        return None if rng.random() < 0.6 else ("num", rng.randint(0, 3))
    x = rng.choice(pool)
    if roll < 0.6:
        return ("var", x)
    if roll < 0.75:
        return ("sub", ("var", x), ("num", 1))
    others = [name for name in pool if name != x]
    if roll < 0.85 or not others:
        return ("mul", ("num", rng.randint(2, 4)), ("var", x))
    return ("mul", ("var", x), ("var", rng.choice(others)))


@dataclass
class GenStep:
    label: str
    repeat: tuple | None
    actions: dict  # kind letter -> tree
    note: str | None


@dataclass
class GenConcept:
    name: str
    variables: list[str]
    steps: list[GenStep]

    def text(self) -> str:
        lines = [f"# generated concept {self.name}", f'concept "{self.name}"']
        for index, name in enumerate(self.variables):
            lines.append(f"var {name}  # variable {index + 1}")
        for step in self.steps:
            head = f'step "{step.label}"'
            if step.repeat is not None:
                head += f" repeat {render(step.repeat)}"
            body = "; ".join(f"{kind}: {render(tree)}" for kind, tree in step.actions.items())
            line = f"{head} {{ {body} }}" if body else f"{head} {{ }}"
            if step.note:
                line += f"  # {step.note}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def repeat_of(self, step: GenStep, binding) -> int:
        return 1 if step.repeat is None else value(step.repeat, binding)

    def per_kind(self, binding) -> dict[str, int]:
        """Action counts at a binding, computed by the benchmark itself."""
        totals = {kind: 0 for kind in KINDS}
        for step in self.steps:
            repeat = self.repeat_of(step, binding)
            for kind, tree in step.actions.items():
                totals[kind] += repeat * value(tree, binding)
        return totals

    def repeat_total(self, binding) -> int:
        """Executions the brute-force oracle loops through."""
        return sum(self.repeat_of(step, binding) for step in self.steps)

    def loop_work(self, binding) -> int:
        """Inner-loop iterations of the oracle: one per kind per execution."""
        return sum(
            self.repeat_of(step, binding) * (1 + len(step.actions)) for step in self.steps
        )


def _concept(rng: random.Random, index: int) -> GenConcept:
    # Size is stratified by index (4..24 steps, 1..6 variables), so every
    # seed yields the same mix of concept sizes and only the details vary.
    pool = rng.sample(VARIABLE_POOL, 1 + index % 6)
    steps = []
    for number in range(4 + index % 21):
        actions = {kind: _count_tree(rng, pool) for kind in KINDS if rng.random() < 0.5}
        note = "conditional step" if rng.random() < 0.1 else None
        steps.append(GenStep(f"step {number + 1}", _repeat_tree(rng, pool), actions, note))
    return GenConcept(f"gen-{index}", pool, steps)


def _has_variable_repeat(concept: GenConcept) -> bool:
    return any(
        step.repeat is not None and step.repeat[0] != "num" for step in concept.steps
    )


@dataclass
class SweepPair:
    text: str
    binding: dict[str, int]
    expected_per_kind: dict[str, int]
    expected_is: int
    repeat_total: int
    large: bool


# Oracle inner-loop iterations a large pair is sized to.  One pair in
# LARGE_EVERY is large, so the sweep's tail percentile (ten pairs beyond it)
# falls among them and reflects the oracle's per-repeat loop.  Large pairs
# sit at fixed positions, so they span the same concept sizes for every seed.
LARGE_LOOP_WORK = 60_000
LARGE_EVERY = 20


def sweep_pairs(seed: int, count: int) -> list[SweepPair]:
    """count concept/binding pairs; bindings are at paper scale (1-12) except
    in every LARGE_EVERY-th pair, which binds one repeat variable to a value
    in the thousands."""
    rng = random.Random(seed)
    pairs = []
    for index in range(count):
        concept = _concept(rng, index)
        large = index % LARGE_EVERY == LARGE_EVERY - 1
        while large and not _has_variable_repeat(concept):
            concept = _concept(rng, index)
        binding = {name: rng.randint(1, 12) for name in concept.variables}
        if large:
            binding = _enlarge(concept, binding)
        per_kind = concept.per_kind(binding)
        pairs.append(
            SweepPair(
                concept.text(),
                binding,
                per_kind,
                sum(per_kind.values()),
                concept.repeat_total(binding),
                large,
            )
        )
    return pairs


def _enlarge(concept: GenConcept, binding: dict[str, int]) -> dict[str, int]:
    """Bind one repeat variable to a value in [1000, 20000] so that the
    oracle's loop work comes as close to LARGE_LOOP_WORK as any variable
    allows.  Loop work is linear in each variable (see _repeat_tree)."""
    best = None
    for name in concept.variables:
        low = concept.loop_work({**binding, name: 1000})
        slope = (concept.loop_work({**binding, name: 2000}) - low) / 1000
        if slope <= 0:
            continue
        target = round(1000 + (LARGE_LOOP_WORK - low) / slope)
        candidate = {**binding, name: min(20000, max(1000, target))}
        miss = abs(math.log(concept.loop_work(candidate) / LARGE_LOOP_WORK))
        if best is None or miss < best[0]:
            best = (miss, candidate)
    return best[1]


# --- shipped concepts -------------------------------------------------------


def check_shipped_values(root) -> list[str]:
    """174/171, 45/46, 126.52 s and 1.35 IS/s through the library.

    Returns one message per mismatch; empty when all reproduce.
    """
    from ixcomplex import analyze, evaluate, klm_parse, klm_speed, klm_time, parse_concept, parse_expr
    from ixcomplex.klm import KlmModel
    from ixcomplex.rounding import format_fixed

    v1 = parse_concept((root / "concepts" / "v1.concept").read_text(encoding="utf-8"))
    v2 = parse_concept((root / "concepts" / "v2.concept").read_text(encoding="utf-8"))
    seconds = klm_time(klm_parse(V1_PUBLISHED_KLM), KlmModel(), KLM_V1_BINDING)
    got = {
        "v1 as-defined IS": analyze(v1, V1_BINDING).instantiated[1],
        "v1 as-published IS": evaluate(parse_expr(V1_PUBLISHED_IS), V1_BINDING),
        "v2 as-defined IS": analyze(v2, V2_BINDING).instantiated[1],
        "v2 as-published IS": evaluate(parse_expr(V2_PUBLISHED_IS), V2_BINDING),
        "v1 KLM seconds": format_fixed(seconds),
        "v1 KLM IS/s": format_fixed(klm_speed(171, seconds)),
    }
    want = {
        "v1 as-defined IS": 174,
        "v1 as-published IS": 171,
        "v2 as-defined IS": 45,
        "v2 as-published IS": 46,
        "v1 KLM seconds": "126.52",
        "v1 KLM IS/s": "1.35",
    }
    return [f"{key}: got {got[key]!r}, want {want[key]!r}" for key in want if got[key] != want[key]]
