"""Exact rational Newton-Okounkov body computations on desk-scale models.

Modules by layer: `polytope` (exact convex bodies), `toric` / `surface` /
`curve` (variety models), `invariants` (one backend per kind of model, with
its bodies, volumes, dimensions, canonical class and flag strata),
`fiberspace` (subadditivity checks that ask the backends; only
lemma3_1 still reads toric models and their restricted series directly),
`cli` (command-line front end).  `kernel` holds the exact integer-geometry
inner loops the polytope layer runs on, and `value` the one equality and
hashing rule of the model and report classes.
"""

from .curve import CurveModel
from .polytope import HalfSpace, Polytope, hull
from .surface import SurfaceLattice
from .toric import ToricDivisor, ToricFlag, ToricVariety

__all__ = ["CurveModel", "HalfSpace", "Polytope", "SurfaceLattice",
           "ToricDivisor", "ToricFlag", "ToricVariety", "hull"]

__version__ = "0.1.0"
