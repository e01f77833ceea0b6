"""Structured reports for congruence-checker sweeps."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class Mutation:
    """Test-harness fault injection: add delta to the left-hand value of the
    index-th (0-based) compared instance of each report.

    Each report counts its instances in report order and perturbs the one
    named (``CongruenceReport.tap`` and ``count``); an index at or past its
    instances injects nothing. Instances that hold without a comparison are
    counted by ``skip``, which refuses a run of them that holds the index,
    so that the instance is compared instead. A polynomial compare's
    instances are the longer operand's coefficients in witness order (graded
    revlex for MultiPolys, degree for UniPolys); junod-lemma's are its
    trials, each perturbed at the leading term of its a^n. A sound checker flags a delta
    that breaks the congruence and passes a multiple of the modulus.
    """

    index: int
    delta: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"negative mutation index {self.index}")

    @classmethod
    def parse(cls, text: str) -> "Mutation":
        idx, _, delta = text.partition(":")
        return cls(int(idx), int(delta))

    def shifted(self, start: int, stop: int) -> Optional["Mutation"]:
        """This mutation for a report that counts instances start..stop-1
        of a longer run from 0, or None if the index is not among them."""
        if not start <= self.index < stop:
            return None
        return Mutation(self.index - start, self.delta)


def _jsonable(x):
    if isinstance(x, float):  # only infinities reach here (vp of 0)
        return "inf"
    if isinstance(x, int) and abs(x) > 2**53:
        return str(x)
    return x


@dataclass
class CongruenceReport:
    """Machine-readable outcome of one checker sweep."""

    checker: str
    params: dict
    instances: int = 0
    violations: list = field(default_factory=list)
    seed: Optional[int] = None
    elapsed_ms: Optional[int] = None
    advisory: bool = False  # True for non-asserted sweeps (the p=2 experiments)
    # the fault to inject; not part of the serialized report
    mutation: Optional[Mutation] = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    def tap(self, value: int) -> int:
        """Count one compared instance; its left-hand value, plus the
        mutation's delta if the mutation names this instance."""
        i = self.instances
        self.instances = i + 1
        m = self.mutation
        if m is None or m.index != i:
            return value
        return value + m.delta

    def count(self, k: int) -> Optional[Tuple[int, int]]:
        """Count k compared instances; (i, delta) if the mutation names the
        i-th of them, else None."""
        start = self.instances
        self.instances = start + k
        m = self.mutation
        if m is None or not start <= m.index < start + k:
            return None
        return m.index - start, m.delta

    def skip(self, k: int) -> bool:
        """Count k instances that hold without a comparison, unless the
        mutation names one of them; True if they were counted."""
        start = self.instances
        m = self.mutation
        if m is not None and start <= m.index < start + k:
            return False
        self.instances = start + k
        return True

    def extend(self, later: "CongruenceReport") -> None:
        """Append the report of the instances that follow this report's: its
        instances and violations, and its elapsed_ms if both are timed."""
        self.instances += later.instances
        self.violations.extend(later.violations)
        if self.elapsed_ms is not None and later.elapsed_ms is not None:
            self.elapsed_ms += later.elapsed_ms

    def add_violation(
        self,
        instance: dict,
        difference: int,
        required_modulus: int,
        ctx,
        required_vp,
    ) -> None:
        """Record one violation at instance; its observed valuation is
        ``ctx.vp(difference)`` ("inf" for 0), computed here."""
        self.violations.append(
            {
                "instance": instance,
                "difference": str(difference),
                "required_modulus": required_modulus,
                "observed_vp": _jsonable(ctx.vp(difference)),
                "required_vp": _jsonable(required_vp),
            }
        )

    def to_json_obj(self) -> dict:
        obj = {
            "checker": self.checker,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "instances": self.instances,
            "violations": self.violations,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.advisory:
            obj["advisory"] = True
        if self.elapsed_ms is not None:
            obj["elapsed_ms"] = self.elapsed_ms
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), sort_keys=True)

    def to_text(self) -> str:
        status = "PASS" if self.passed else f"FAIL({len(self.violations)})"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        line = f"{status:8s} {self.checker:20s} {params} instances={self.instances}"
        if self.advisory:
            line += " [advisory]"
        if not self.passed:
            first = self.violations[0]
            line += f"\n         first witness: {json.dumps(first, sort_keys=True)}"
        return line
