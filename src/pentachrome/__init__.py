"""Rainbow 5-colourings of the regular dodecahedron.

Enumerates every vertex colouring in which all 12 pentagonal faces carry
all five colours, together with the icosahedral symmetry machinery, the
colour-side group S5 x {1,-1}, orbit partitioning, the two chiral compounds
of five inscribed tetrahedra, and the zigzag / cyclic-order-parity structure
of the colourings.
"""

from .chroma import (
    Colouring,
    act,
    antipodal_rule_holds,
    colour_classes,
    colouring_from_json,
    colouring_to_json,
    enumerate_by_propagation,
    enumerate_colourings,
    enumeration_to_json,
    face_parity_signature,
    is_valid,
    orbit_partition,
    parity_class,
    seed_colourings,
    working_handedness,
    zigzag_trace,
    zigzag_walk,
)
from .compound import (
    Compound,
    SpreadReport,
    classify_colouring,
    compounds,
    inscribed_tetrahedra,
    spread_subsets,
)
from .polytope import (
    PolytopeModel,
    build_polytope,
    distance_spectrum,
    model_to_json,
    model_to_off,
)
from .symmetry import (
    ColourSymmetry,
    colour_group,
    compose,
    full_group,
    generate_subgroup,
    named_subgroup,
    rotation_group,
    tetra_action,
)
