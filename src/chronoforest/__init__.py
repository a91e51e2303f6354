"""Chronological forests built from sticks.

A stick is a life length paired with a point measure of birth ages.  This
package grafts stick sequences into planar forests, computes their height
and contour processes, exposes the dual-walk ladder decomposition that
recovers heights and ancestral spines from offspring counts alone, and
ships the renewal samplers, coupling checks and scaling experiments that
probe the large-population behaviour of those processes.
"""

from . import _heap
from .measures import (
    ZERO,
    PointMeasure,
    Stick,
    sticks_from_json,
    write_sticks_json,
)
from .forest import (
    ChronForest,
    ContourPath,
    build_forest,
    contour_path,
    genealogical_map,
    write_contour_csv,
    write_forest_csv,
)
from .lukasiewicz import (
    LadderDecomp,
    Walk,
    chi,
    dual_passage,
    ladder_decomp,
    max_drop,
    mrca,
    walk,
)
from .spine import (
    IdentityReport,
    height_profile_arrays,
    phi,
    shifted_spine,
    spine_height,
    spine_states,
    verify_identities,
)

# once per process, before any replicate allocates
_heap.keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "ZERO",
    "PointMeasure",
    "Stick",
    "sticks_from_json",
    "write_sticks_json",
    "ChronForest",
    "ContourPath",
    "build_forest",
    "contour_path",
    "genealogical_map",
    "write_contour_csv",
    "write_forest_csv",
    "LadderDecomp",
    "Walk",
    "chi",
    "dual_passage",
    "ladder_decomp",
    "max_drop",
    "mrca",
    "walk",
    "IdentityReport",
    "height_profile_arrays",
    "phi",
    "shifted_spine",
    "spine_height",
    "spine_states",
    "verify_identities",
    "__version__",
]
