"""Chronological forests built from sticks.

A stick is a life length paired with a point measure of birth ages.  This
package grafts stick sequences into planar forests, computes their height
and contour processes, exposes the dual-walk ladder decomposition that
recovers heights and ancestral spines from offspring counts alone, and
ships the renewal samplers, coupling checks and scaling experiments that
probe the large-population behaviour of those processes.
"""

from .measures import (
    EMPTY_SPINE,
    ZERO,
    PointMeasure,
    SpineSeq,
    Stick,
    sticks_from_json,
    sticks_to_json,
)
from .forest import (
    ChronForest,
    ContourPath,
    ForestNode,
    build_forest,
    contour_path,
    genealogical_map,
    min_contour,
    write_contour_csv,
    write_forest_csv,
)
from .lukasiewicz import (
    LadderDecomp,
    Walk,
    ancestors_from_walk,
    chi,
    dual_passage_measure,
    dual_passage_time,
    first_passage_below,
    forward_ladder,
    ladder_decomp,
    max_drop,
    mrca,
    walk,
)
from .spine import (
    IdentityReport,
    height_profile,
    height_profile_arrays,
    phi,
    shifted_spine,
    spine_process,
    spine_states,
    verify_identities,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_SPINE",
    "ZERO",
    "PointMeasure",
    "SpineSeq",
    "Stick",
    "sticks_from_json",
    "sticks_to_json",
    "ChronForest",
    "ContourPath",
    "ForestNode",
    "build_forest",
    "contour_path",
    "genealogical_map",
    "min_contour",
    "write_contour_csv",
    "write_forest_csv",
    "LadderDecomp",
    "Walk",
    "ancestors_from_walk",
    "chi",
    "dual_passage_measure",
    "dual_passage_time",
    "first_passage_below",
    "forward_ladder",
    "ladder_decomp",
    "max_drop",
    "mrca",
    "walk",
    "IdentityReport",
    "height_profile",
    "height_profile_arrays",
    "phi",
    "shifted_spine",
    "spine_process",
    "spine_states",
    "verify_identities",
    "__version__",
]
