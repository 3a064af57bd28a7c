"""Structured scan outcomes and their canonical JSON form."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

HOLDS = "holds"
FAILS = "fails"


@dataclass
class ScanReport:
    """Outcome of a conjecture/identity scan.

    witnesses are violation tuples (t, n, lhs, rhs) in deterministic order;
    verdict is "holds" exactly when witnesses is empty.  data carries scan
    payloads that are not violations (zero sets, anomaly lists, argmax
    records, statistics).
    """

    scan: str
    params: dict[str, Any]
    verdict: str
    witnesses: list[tuple] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)
    elapsed_ms: int = 0

    def finish(self) -> "ScanReport":
        self.witnesses = sorted(self.witnesses, key=_witness_key)
        if self.verdict not in (HOLDS, FAILS):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if (self.verdict == HOLDS) != (not self.witnesses):
            raise ValueError(f"verdict {self.verdict!r} disagrees with {len(self.witnesses)} witnesses")
        return self

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "scan": self.scan,
            "params": _jsonable(self.params),
            "verdict": self.verdict,
            "witnesses": [_jsonable(list(w)) for w in self.witnesses],
            "data": _jsonable(self.data),
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"


def _witness_key(w: tuple) -> tuple:
    """Total order over heterogeneous witness tuples (type rank, then value)."""
    return tuple((0, x, "") if isinstance(x, int) else (1, 0, repr(x)) for x in w)


def _jsonable(x: Any) -> Any:
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    return x
