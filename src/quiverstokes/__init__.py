"""quiverstokes: exact Stokes matrices from quiver counting data.

The package computes, in exact rational arithmetic, the unipotent Stokes
matrices attached to a quiver together with a good basis of its class
lattice: elementary factors from counting invariants, clockwise ordered
products over chambers of central charges, truncated jets and their
polynomial lifts, and the braid/permutation/sign actions with a bounded
orbit search producing replayable equivalence certificates.
"""

from .algebra import (Basis, LatticeVector, PolyMatrix, TruncatedPoly,
                      joyce_point, lv_len, lv_monomial)
from .braid import (BraidWord, EquivalenceCertificate, OrbitSearchResult,
                    beta, beta_inv, orbit_search, perm_conj, sign_conj,
                    verify_braid_group_relations)
from .goodness import (EpsilonTensor, GoodQuiverSolution, SymbolicQuiver,
                       check_quadratic, check_vanishing_p3, epsilon_solutions,
                       find_good_quivers, mutation_basis)
from .quiver import (EulerForm, Quiver, apply_word, euler_form, linear_quiver,
                     mutate, mutation_class)
from .stokes import (Chamber, DTModel, RayCollision, StokesData, an_chamber,
                     an_stokes, convex_charge, factor_product, level2_chamber,
                     natural_lifts, ray_order, stokes_product, verify_an_jet)

__version__ = "0.1.0"

__all__ = [
    "Basis", "BraidWord", "Chamber", "DTModel", "EpsilonTensor",
    "EquivalenceCertificate", "EulerForm", "GoodQuiverSolution",
    "LatticeVector", "OrbitSearchResult", "PolyMatrix", "Quiver",
    "RayCollision", "StokesData", "SymbolicQuiver", "TruncatedPoly",
    "an_chamber", "an_stokes", "apply_word", "beta", "beta_inv",
    "check_quadratic", "check_vanishing_p3", "convex_charge",
    "epsilon_solutions", "euler_form", "factor_product", "find_good_quivers",
    "joyce_point", "level2_chamber", "linear_quiver",
    "lv_len", "lv_monomial", "mutate", "mutation_basis", "mutation_class",
    "natural_lifts", "orbit_search", "perm_conj", "ray_order", "sign_conj",
    "stokes_product", "verify_an_jet", "verify_braid_group_relations",
]
