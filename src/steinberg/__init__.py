"""Exact desk-scale computations in Steinberg groups over tiny rings."""

from .rings import (
    Elem,
    FGIdeal,
    RingMorphism,
    SplitData,
    lin_solve,
    localization,
    make_ring,
    quotient_ring,
    split_data,
    splitting_section,
    unique_divide,
)
from .roots import RootDatum, build_system

__all__ = [
    "Elem",
    "FGIdeal",
    "RingMorphism",
    "SplitData",
    "lin_solve",
    "localization",
    "make_ring",
    "quotient_ring",
    "split_data",
    "splitting_section",
    "unique_divide",
    "RootDatum",
    "build_system",
]
