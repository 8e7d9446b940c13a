"""One-dimensional models: a smooth projective curve of a given genus.
Its divisor classes, tracked by degree, live in `invariants.CurveBackend`.
"""

from __future__ import annotations

from fractions import Fraction

from .value import Value


class CurveModel(Value):
    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        self.genus = genus

    @property
    def canonical_degree(self) -> Fraction:
        return Fraction(2 * self.genus - 2)

    def to_obj(self):
        return {"kind": "curve", "genus": self.genus}
