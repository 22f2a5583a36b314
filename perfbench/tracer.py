"""Spans around the library's public functions, installed from outside.

Each target is wrapped once.  A plain function is replaced in every
``proxilift`` module attribute that *is* the original object, which also
catches ``from .spaces import w1_distance`` style imports; a method,
classmethod or cached property is replaced on its class.  A target a later
change deletes is reported as absent instead of failing the run.

Spans stay in memory as (name, parent span, start ns, end ns, analysis id)
and are written out when the run ends.  Self time is a span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from functools import cached_property
from typing import Any, Callable

TARGETS = [
    ("cli", "load_spec"),
    ("proximality", "is_proximal"),
    ("proximality", "strongly_proximal"),
    ("proximality", "reset_word"),
    ("proximality", "proximal_pair"),
    ("lift", "lift_system"),
    ("lift", "equivalence_harness"),
    ("lift", "invariant_metas"),
    ("lift", "psi_checks"),
    ("lift", "psi_homomorphism_check"),
    ("lift", "LiftedSystem.metric"),
    ("spaces", "GridSimplex.build"),
    ("spaces", "GridSimplex.atom_index"),
    ("spaces", "FiniteSpace.discrete"),
    ("spaces", "w1_distance"),
    ("transport", "min_cost_transport"),
    ("actions", "pushforward"),
    ("actions", "StochasticMatrix.then"),
    ("actions", "dobrushin"),
    ("actions", "ActionSystem.word_matrix"),
    ("actions", "ActionSystem.word_transformation"),
    ("linalg", "polytope_vertices"),
    ("linalg", "solve_affine"),
]

UNKNOWN_COUNTED = ("is_proximal", "strongly_proximal", "reset_word", "proximal_pair")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.analysis = -1
        self.absent: list[str] = []
        self.counters: dict[str, int] = {}
        self.cache_misses: Callable[[], int] | None = None

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn: Callable, hooks: tuple | None) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        before, observe = hooks or (None, None)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(self) if before is not None else None
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append((idx, parent, 0, 0, self.analysis))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (idx, parent, start, end, self.analysis)
                self.calls[idx] += 1
                self.total_ns[idx] += dur
                self.self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(self, token, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            module = sys.modules.get(f"proxilift.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            hooks = HOOKS.get(name)
            if not owner_name:
                if name == "lift.lift_system" and hasattr(raw, "cache_info"):
                    self.cache_misses = lambda raw=raw: raw.cache_info().misses
                wrapper = self.wrap(name, raw, hooks)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "proxilift" or mod_name.startswith("proxilift."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, wrapper)
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hooks)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, hooks)))
            elif isinstance(raw, cached_property):
                prop = cached_property(self.wrap(name, raw.func, hooks))
                prop.__set_name__(owner, attr)
                setattr(owner, attr, prop)
            elif callable(raw):
                setattr(owner, attr, self.wrap(name, raw, hooks))
            else:
                self.absent.append(name)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-target calls, inclusive and self seconds, plus boundary counts."""
        out: dict[str, tuple[float, str]] = {}
        for (module_name, qualname) in TARGETS:
            name = f"{module_name}.{qualname}"
            if name in self.names:
                i = self.names.index(name)
                calls, total, own = self.calls[i], self.total_ns[i], self.self_ns[i]
            else:
                calls = total = own = 0
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (total / 1e9, "s")
            out[f"{name}.self_s"] = (own / 1e9, "s")
        for fn in UNKNOWN_COUNTED:
            key = f"proximality.{fn}.unknown"
            out[key] = (self.counters.get(key, 0), "count")
        for key, unit in (
            ("lift.lift_system.atoms", "count"),
            ("spaces.FiniteSpace.discrete.entries", "count"),
            ("actions.StochasticMatrix.then.max_den_bits", "bits"),
        ):
            out[key] = (self.counters.get(key, 0), unit)
        return out

    def by_family(self, family_of: list[str]) -> dict[str, dict[str, list]]:
        """[calls, self seconds] per family and target, from the spans.

        ``family_of[i]`` is the family of analysis i, the id spans carry.
        """
        child_ns = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, list]] = {family: {} for family in family_of}
        for i, (name, _, start, end, analysis) in enumerate(self.spans):
            entry = out[family_of[analysis]].setdefault(self.names[name], [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start - child_ns[i]) / 1e9
        return out

    def covered_s(self) -> float:
        return sum(self.self_ns) / 1e9

    def dump(self) -> dict:
        return {
            "names": self.names,
            "absent": self.absent,
            "fields": ["name", "parent", "start_ns", "end_ns", "analysis"],
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# Boundary counts read from results: (before-call hook, after-call hook).

def _count_unknown(key: str) -> tuple:
    def observe(tracer: Tracer, token: Any, result: Any) -> None:
        if getattr(getattr(result, "status", None), "value", None) == "UNKNOWN":
            tracer.bump(key)

    return None, observe


def _misses(tracer: Tracer) -> int | None:
    return tracer.cache_misses() if tracer.cache_misses else None


def _lifted_atoms(tracer: Tracer, misses_before: int | None, result: Any) -> None:
    # Count atoms only when the call did the lifting, not on a cache hit.
    if misses_before is None or _misses(tracer) != misses_before:
        tracer.bump("lift.lift_system.atoms", len(result))


def _discrete_entries(tracer: Tracer, token: Any, result: Any) -> None:
    tracer.bump("spaces.FiniteSpace.discrete.entries", len(result) ** 2)


def _den_bits(tracer: Tracer, token: Any, result: Any) -> None:
    bits = max(p.denominator.bit_length() for row in result.rows for p in row)
    tracer.raise_to("actions.StochasticMatrix.then.max_den_bits", bits)


HOOKS = {
    **{f"proximality.{fn}": _count_unknown(f"proximality.{fn}.unknown") for fn in UNKNOWN_COUNTED},
    "lift.lift_system": (_misses, _lifted_atoms),
    "spaces.FiniteSpace.discrete": (None, _discrete_entries),
    "actions.StochasticMatrix.then": (None, _den_bits),
}
