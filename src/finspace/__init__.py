"""Finite T0 spaces: posets, exact homology, coincidence theorems and
subdivision towers."""

import gc as _gc

from .errors import FinspaceError
from .poset import (
    FinitePoset,
    PosetMap,
    all_monotone_maps,
    are_homotopic,
    build_poset,
    check_continuous,
    constant_map,
    identity_map,
    min_closed_set,
    min_open_set,
    require_continuous,
)
from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision_complex,
    barycentric_subdivision_space,
    chain_map_of,
    chain_max_map,
    face_poset,
    induced_simplicial_map,
    order_complex,
)
from .homology import (
    HomologyProfile,
    InducedMap,
    homology,
    induced_map_of_poset_map,
    induced_on_homology,
    invert,
    is_acyclic,
    lefschetz_number,
    poset_homology,
    smith_normal_form,
)
from .maps import (
    Certificate,
    GraphSpace,
    MultiMap,
    as_multimap,
    classify_continuity,
    compose_map_then_multimap,
    compose_multimaps,
    enumerate_selectors,
    fiber_multimap,
    graph,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
    selector_from_maxima,
)
from .lefschetz import (
    TheoremReport,
    classical_lefschetz,
    coincidence_points,
    corollary_multimap_coincidence,
    multimap_coincidence_points,
    theorem_310,
    theorem_A,
    theorem_B,
    theorem_C,
)
from .dynamics import (
    ApproximativeSequence,
    Tower,
    attach_level_maps,
    build_tower,
    compose_h,
    fiber_H,
    fixed_chain_search,
    fixed_points_of_level,
    lambda_nm,
)
from .formats import (
    element_label,
    parse_map_text,
    parse_multimap_text,
    parse_poset_text,
    serialize_map,
    serialize_multimap,
    serialize_poset,
)

__version__ = "0.1.0"

# The import leaves several thousand long-lived objects (this package's
# functions and classes, and those of its imports) in the cyclic
# collector's young generations.  The first generation-1 collection after
# it scans them all, about 1 ms, at whatever allocation comes next, so a
# short first operation pays a cost that depends on where it falls.  One
# collection here moves them to the old generation during the import.
_gc.collect(1)
