"""Combinatorial TQFT-style invariants of dividing sets on marked surfaces.

The package builds graded GF(2) modules whose generators are canonical
dividing sets and whose relations come from bypass triples, computes the
class of any dividing set, realizes boundary-arc gluing maps between such
modules, and mechanizes the impossibility of a sign-free integer lift of
the classes.
"""

from .surfaces import (
    MarkedSurface,
    DividingSet,
    BypassArc,
    SurfaceError,
    DividingSetError,
    ColoringError,
    BypassError,
    disk,
    annulus,
    punctured_torus,
    disjoint_union,
    validate_surface,
    label_regions,
    euler_grading,
    is_isolating,
    enumerate_matchings,
    enumerate_dividing_sets,
    canonicalize,
    bypass_triple,
    make_dividing_set,
    catalan,
)
from .tqftcore import (
    TqftModule,
    ClassVector,
    ModuleBuildError,
    BoundExceededError,
    build_module,
    class_of,
    distinct_classes,
    subdisk_relations,
)
from .gluemaps import (
    BoundaryArc,
    GluingDatum,
    GluingError,
    glue_surfaces,
    glue_map,
    cut_surface,
    cut_check,
    attach_arc_map,
    datum_map,
)
from .liftsearch import (
    LiftProblem,
    standard_problem,
    search_lift,
    replay_certificate,
    mod2_consistency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
