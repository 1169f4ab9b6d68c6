"""Nodal-hypersurface and domain averages for few-electron wave functions.

The package computes the decomposition E = E_kin^nda + E_pot^nda, where the
kinetic part is a surface integral of |grad Psi| over the nodal set divided
by the integral of |Psi|, and the potential part is the |Psi|-weighted
average of V.  Estimates come from importance sampling of a reference
density, direct sampling of parametrized node surfaces, thin-shell
extrapolation, and deterministic quadrature; domain counts and node
equivalence take their points from a Psi^2 Metropolis walk.  A catalog of
few-electron states with exact rational reference values makes every
estimator verifiable.
"""

__version__ = "0.1.0"

from .catalog import (StateSpec, NodeParametrization, ReferenceDensity,
                      catalog_list, catalog_to_json, get_state,
                      node_parametrization, subshell_family)
from .estimators import (NdaEstimate, SamplerConfig, estimate_abs_norm,
                         estimate_kin_nda_shell, estimate_kin_nda_surface,
                         estimate_pot_nda, estimate_standard_expectations,
                         quadrature_estimate)
from .hamiltonians import (HamiltonianSpec, NodeProximityError,
                           SingularPointError, coulomb_atom, harmonic_pair,
                           local_energy)
from .quadrature import NotReducibleError, quadrature_oracle
from .reference import (SubshellParams, harmonic_reference, quasiclassical_gap,
                        subshell_kin_nda, subshell_pot_nda, subshell_total)
from .topology import (DomainReport, TransformSpec, count_nodal_domains,
                       find_block_transform, test_node_equivalence)
from .wavefunctions import HarmonicPair, Orbital, SlaterProduct, WaveFunction

__all__ = [
    "__version__",
    "StateSpec", "NodeParametrization", "ReferenceDensity",
    "catalog_list", "catalog_to_json", "get_state", "node_parametrization",
    "subshell_family",
    "NdaEstimate", "SamplerConfig",
    "estimate_abs_norm", "estimate_kin_nda_shell", "estimate_kin_nda_surface",
    "estimate_pot_nda", "estimate_standard_expectations",
    "quadrature_estimate",
    "HamiltonianSpec", "NodeProximityError", "SingularPointError",
    "coulomb_atom", "harmonic_pair", "local_energy",
    "NotReducibleError", "quadrature_oracle",
    "SubshellParams", "harmonic_reference", "quasiclassical_gap",
    "subshell_kin_nda", "subshell_pot_nda", "subshell_total",
    "DomainReport", "TransformSpec", "count_nodal_domains",
    "find_block_transform", "test_node_equivalence",
    "HarmonicPair", "Orbital", "SlaterProduct", "WaveFunction",
]
