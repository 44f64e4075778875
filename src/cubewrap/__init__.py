"""cubewrap: an explicit symplectic embedding of the open unit cube into
a long polydisc, with numerical verification of its sharp section-area
bound and path-connected section complements."""

__version__ = "0.1.0"

from .maps import (
    DISC_RADIUS,
    SYMPLECTIC_TOL,
    EmbeddingConfig,
    build_phi,
    build_psi,
    check_symplectic,
    make_lambda,
    make_lambda_prime,
    shear_wrap,
    square_to_cylinder,
    unshear_wrap,
)
from .quotient import (
    LineIntervalSet,
    preimage_affine_mod,
    reduce,
)
from .sections import (
    SectionDescription,
    fubini_check,
    section_area_mc,
    section_of_phi,
)
from .topology import (
    Raster,
    bounded_hull,
    check_complement_connected,
    check_hull_bound,
    complement_components,
    rasterize_section,
)

__all__ = [
    "__version__",
    "DISC_RADIUS",
    "SYMPLECTIC_TOL",
    "EmbeddingConfig",
    "build_phi",
    "build_psi",
    "check_symplectic",
    "make_lambda",
    "make_lambda_prime",
    "shear_wrap",
    "square_to_cylinder",
    "unshear_wrap",
    "LineIntervalSet",
    "preimage_affine_mod",
    "reduce",
    "SectionDescription",
    "fubini_check",
    "section_area_mc",
    "section_of_phi",
    "Raster",
    "bounded_hull",
    "check_complement_connected",
    "check_hull_bound",
    "complement_components",
    "rasterize_section",
]
