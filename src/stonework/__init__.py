"""Finite-scale workbench for projection lattices over a fibered matrix algebra.

Everything is built over a finite base space: the center is the algebra of
complex functions on its points, the module is the free column module over
the center, and operators are one square matrix per point. Quasipoints of
the projection lattice, their center map and unitary orbits, germs, and
observable functions of self-adjoint operators are all computed exactly at
desk scale and exercised by the randomized property suites in ``verify``.
"""

from .center import (
    CenterElement,
    CenterQuasipoint,
    StoneSpace,
    center_membership,
    center_quasipoints,
    char_fn,
    gelfand_eval,
)
from .errors import StoneworkError
from .hilbert_module import (
    ModuleElement,
    Submodule,
    abelian_projection,
    basis_vector,
    inner,
    ket_bra,
    module_norm,
    module_projection,
    normalize,
    support,
)
from .lattice import (
    FiniteLattice,
    Filter,
    enumerate_quasipoints,
    extend_trunk,
    isolated_points,
    meet_closure,
    stone_base_set,
    trunk,
)
from .matrix_algebra import (
    FiberedOperator,
    adjoint,
    central_carrier,
    central_operator,
    diagonal_sum_projection,
    fibered_meet,
    identity,
    is_abelian_projection,
    transport,
)
from .numerics import Tolerance, is_projection
from .observables import (
    SpectralFamily,
    eigenline_quasipoints,
    observable_value,
    spectral_family,
)
from .rng import SplitMix64
from .spectrum import (
    Quasipoint,
    common_central_reduction,
    extend_filter_to_quasipoint,
    germ_eval,
    germ_inverse,
    germ_submodule,
    orbit_witness,
    qp_contains,
    quasipoint,
    unitary_act,
    zeta,
)

__all__ = [
    # center
    "CenterElement",
    "CenterQuasipoint",
    "StoneSpace",
    "center_membership",
    "center_quasipoints",
    "char_fn",
    "gelfand_eval",
    # errors
    "StoneworkError",
    # hilbert_module
    "ModuleElement",
    "Submodule",
    "abelian_projection",
    "basis_vector",
    "inner",
    "ket_bra",
    "module_norm",
    "module_projection",
    "normalize",
    "support",
    # lattice
    "FiniteLattice",
    "Filter",
    "enumerate_quasipoints",
    "extend_trunk",
    "isolated_points",
    "meet_closure",
    "stone_base_set",
    "trunk",
    # matrix_algebra
    "FiberedOperator",
    "adjoint",
    "central_carrier",
    "central_operator",
    "diagonal_sum_projection",
    "fibered_meet",
    "identity",
    "is_abelian_projection",
    "transport",
    # numerics
    "Tolerance",
    "is_projection",
    # observables
    "SpectralFamily",
    "eigenline_quasipoints",
    "observable_value",
    "spectral_family",
    # rng
    "SplitMix64",
    # spectrum
    "Quasipoint",
    "common_central_reduction",
    "extend_filter_to_quasipoint",
    "germ_eval",
    "germ_inverse",
    "germ_submodule",
    "orbit_witness",
    "qp_contains",
    "quasipoint",
    "unitary_act",
    "zeta",
]
__version__ = "0.1.0"
