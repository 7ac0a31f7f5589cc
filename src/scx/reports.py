"""Uniform check records and their deterministic JSON serialization.

Every inequality/identity checker in the library returns a CheckRecord;
verification campaigns bundle them into a VerificationReport.  JSON
output is canonical (sorted keys, fixed separators, floats via repr,
infinities as strings) so reports are byte-identical across runs with
the same seed and flags; wall time is therefore reported separately and
never serialized into the canonical document.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["CheckRecord", "VerificationReport", "digest", "jsonable", "json_field", "json_lists"]


def digest(*parts) -> str:
    """Short stable digest of the inputs a check ran on."""
    h = hashlib.sha1()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]


def jsonable(v):
    """Map values to deterministic JSON-safe equivalents."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):  # pragma: no cover - checkers never emit NaN
            return "nan"
        return v
    if isinstance(v, (list, tuple)):
        return [jsonable(e) for e in v]
    if isinstance(v, (dict,)):
        return {str(k): jsonable(e) for k, e in v.items()}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


def json_field(obj, key: str, what: str):
    """obj[key] of a parsed JSON object, or a ValueError naming the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} JSON needs a '{key}' field")
    return obj[key]


def json_lists(obj, key: str, what: str) -> list:
    """A field that must hold a list of lists (vertex sets, columns)."""
    value = json_field(obj, key, what)
    if not isinstance(value, (list, tuple)) or not all(isinstance(e, (list, tuple)) for e in value):
        raise ValueError(f"{what} JSON field '{key}' must be a list of lists")
    return value


@dataclass
class CheckRecord:
    """One verified claim instance: what was compared and how it went."""

    check: str
    inputs: str
    lhs: object
    rhs: object
    margin: object
    passed: bool
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "lhs": jsonable(self.lhs),
            "rhs": jsonable(self.rhs),
            "margin": jsonable(self.margin),
            "passed": self.passed,
            "note": self.note,
            "details": jsonable(self.details),
        }


@dataclass
class VerificationReport:
    suite: str
    seed: int
    params: dict
    records: list
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "params": jsonable(self.params),
            "records": [r.to_dict() for r in self.records],
            "n_records": len(self.records),
            "passed": self.passed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_table(self) -> str:
        """Human-readable summary, one line per record."""
        lines = [f"suite {self.suite}  seed {self.seed}  records {len(self.records)}"]
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"{mark}  {r.check:<28} {r.inputs:<14} "
                f"lhs={_short(r.lhs):>12} rhs={_short(r.rhs):>12} margin={_short(r.margin):>12}{note}"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        if self.wall_time_s is not None:
            lines.append(f"wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines)


def _short(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.6g}"
    if isinstance(v, Fraction):
        return str(v)
    if v is None:
        return "-"
    return str(v)
