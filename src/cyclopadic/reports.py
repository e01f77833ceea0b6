"""Structured reports for congruence-checker sweeps."""
from __future__ import annotations

import json
from typing import Optional, Tuple

# one encoder for every report: json.dumps with these arguments builds one
# per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _jsonable(x):
    """x as a report writes it: an int above 2**53 in magnitude, which a
    JSON reader that parses numbers as doubles would round, as its decimal
    string, and a float (only the infinite vp of 0 reaches here) as "inf"."""
    if isinstance(x, float):
        return "inf"
    if isinstance(x, int) and abs(x) > 2**53:
        return str(x)
    return x


class CongruenceReport:
    """Machine-readable outcome of one checker sweep.

    ``advisory`` is True for non-asserted sweeps (the p=2 experiments).

    ``mutation`` is the test harness's fault, a pair (index, delta) or None:
    add delta to the left-hand value of the index-th (0-based) compared
    instance. The report counts its instances in report order and perturbs
    the one named (``tap`` and ``count``); an index at or past its instances
    injects nothing, and a negative index raises ValueError. Instances that
    hold without a comparison are counted by ``skip``, which refuses a run of
    them that holds the index, so that the instance is compared instead. A
    polynomial compare's instances are the longer operand's coefficients in
    witness order (graded revlex for MultiPolys, degree for UniPolys);
    junod-lemma's are its trials, each perturbed at the leading term of its
    a^n. A sound checker flags a delta that breaks the congruence and passes
    a multiple of the modulus. The mutation is not part of the serialized
    report, of equality or of the repr.
    """

    def __init__(
        self,
        checker: str,
        params: dict,
        instances: int = 0,
        violations: Optional[list] = None,
        seed: Optional[int] = None,
        elapsed_ms: Optional[int] = None,
        advisory: bool = False,
        mutation: Optional[Tuple[int, int]] = None,
    ):
        if mutation is not None and mutation[0] < 0:
            raise ValueError(f"negative mutation index {mutation[0]}")
        self.checker = checker
        self.params = params
        self.instances = instances
        self.violations = [] if violations is None else violations
        self.seed = seed
        self.elapsed_ms = elapsed_ms
        self.advisory = advisory
        self.mutation = mutation

    def _fields(self) -> tuple:
        return (self.checker, self.params, self.instances, self.violations,
                self.seed, self.elapsed_ms, self.advisory)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("checker", "params", "instances", "violations", "seed",
                 "elapsed_ms", "advisory")
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields()))
        return f"CongruenceReport({fields})"

    @property
    def passed(self) -> bool:
        return not self.violations

    def tap(self, value: int) -> int:
        """Count one compared instance; its left-hand value, plus the
        mutation's delta if the mutation names this instance."""
        hit = self.count(1)
        return value if hit is None else value + hit[1]

    def count(self, k: int) -> Optional[Tuple[int, int]]:
        """Count k compared instances; (i, delta) if the mutation names the
        i-th of them, else None."""
        start = self.instances
        self.instances = start + k
        index, delta = self.mutation or (-1, 0)
        return (index - start, delta) if start <= index < start + k else None

    def skip(self, k: int) -> bool:
        """Count k instances that hold without a comparison, unless the
        mutation names one of them; True if they were counted."""
        start = self.instances
        if self.mutation and start <= self.mutation[0] < start + k:
            return False
        self.instances = start + k
        return True

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
                "instance": {k: _jsonable(v) for k, v in instance.items()},
                "difference": str(difference),
                "required_modulus": _jsonable(required_modulus),
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
            obj["seed"] = _jsonable(self.seed)
        if self.advisory:
            obj["advisory"] = True
        if self.elapsed_ms is not None:
            obj["elapsed_ms"] = self.elapsed_ms
        return obj

    def to_json(self) -> str:
        return _ENCODER.encode(self.to_json_obj())

    def to_text(self) -> str:
        status = "PASS" if self.passed else f"FAIL({len(self.violations)})"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        line = f"{status:8s} {self.checker:20s} {params} instances={self.instances}"
        if self.elapsed_ms is not None:
            line += f" elapsed_ms={self.elapsed_ms}"
        if self.advisory:
            line += " [advisory]"
        if not self.passed:
            first = self.violations[0]
            line += f"\n         first witness: {json.dumps(first, sort_keys=True)}"
        return line
