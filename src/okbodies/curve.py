"""One-dimensional models: a smooth projective curve of a given genus.
Its divisor classes, tracked by degree, live in `invariants.CurveBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CurveModel:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be >= 0")

    @property
    def canonical_degree(self) -> Fraction:
        return Fraction(2 * self.genus - 2)

    def to_obj(self):
        return {"kind": "curve", "genus": self.genus}
