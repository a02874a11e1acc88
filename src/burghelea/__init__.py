"""Desk-scale exact-arithmetic workbench for the Hochschild homology of
group rings: conjugacy-class splittings, centralizer localizations, chain
homotopies, rapid-decay norm families and l1 filling functions."""

from .chains import Chain, tuple_diameter
from .errors import (
    CertificateError,
    DescriptorError,
    GroupMismatchError,
    KindMismatchError,
    NotABoundaryError,
    NotConjugateError,
    NotConjugateWithinError,
    ResourceCapError,
    WindowExhaustedError,
    WorkbenchError,
)
from .groups import (
    FiniteTableGroup,
    FinitePermGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupModel,
    ProductGroup,
    parse_group,
)
from .metric import (
    ConjugacyClass,
    CosetSection,
    WordMetric,
    conjugacy_bound_profile,
    conjugacy_class,
    conjugacy_classes,
    coset_section,
    find_conjugator,
)
from .hochschild import (
    hochschild_boundary,
    homology_ranks,
    iota_h,
    pi_h,
    split_by_class,
)
from .bar_complexes import (
    bar_homology_ranks,
    boundary_cbar,
    boundary_cprime,
    localize_to_equivariant,
    phi_g,
    phi_g_inv,
    psi,
    psi_inv,
)
from .homotopy import (
    boundary_e,
    dbar,
    homotopy_d,
    p_e,
    theta_h,
)
from .verify import verify_homotopy_square
from .norms import NormFamily, operator_growth_profile
from .dehn import (
    BarTruncation,
    SimplicialComplex,
    dehn_function,
    filling_estimate_check,
)

__version__ = "0.1.0"
