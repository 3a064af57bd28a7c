"""Structured scan outcomes and their canonical JSON form.

A scan function builds its `ScanReport` inside `timed`, which sets the
report's `elapsed_ms` and puts its witnesses in a total order.  The verdict
is not stored: it is read off the witnesses, so a report cannot claim to
hold while it carries a violation.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from time import monotonic
from typing import Any, Callable

HOLDS = "holds"
FAILS = "fails"


@dataclass
class ScanReport:
    """Outcome of a conjecture/identity scan.

    witnesses are violation tuples (t, n, lhs, rhs), in deterministic order
    once `timed` has sorted them.  data carries scan payloads that are not
    violations (zero sets, anomaly lists, argmax records, statistics).
    """

    scan: str
    params: dict[str, Any]
    witnesses: list[tuple] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def verdict(self) -> str:
        """"holds" exactly when there is no witness, else "fails"."""
        return FAILS if self.witnesses else HOLDS

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


def timed(scan: Callable[..., ScanReport]) -> Callable[..., ScanReport]:
    """Wrap a function that builds a ScanReport: the report it returns has
    its witnesses sorted and the call's wall time as elapsed_ms."""

    @functools.wraps(scan)
    def run(*args, **kwargs) -> ScanReport:
        start = monotonic()
        report = scan(*args, **kwargs)
        report.witnesses.sort(key=_witness_key)
        report.elapsed_ms = int((monotonic() - start) * 1000)
        return report

    return run


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
    return x
