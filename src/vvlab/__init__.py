"""vvlab: boundary-layer corrected low-viscosity studies in reduced geometries.

Modules
-------
geometry   domain backends (flat channel, cylinder gap), wall distances, cutoff
spaces     anisotropic weighted norms, layer evaluation maps, Hardy/Gronwall checks
euler      exact inviscid base flows and their wall data
layer      boundary-layer profile solver, wall traces and layer norms
ns         viscous reference solver with vorticity-free slip walls
expansion  ansatz assembly, the remainder's wall identity, Weyl/Leray projection
study      viscosity sweeps, rate fits, reports, presets, CLI backend

Every studied flow is tangential and carries one component
(``GeometryDescriptor.flow_comp``), so a volume field, the reference
solution, u - u0 and the remainder R are that component alone, (n,) arrays
on the cross coordinates.
"""

from .geometry import GeometryDescriptor, annulus_gap, flat_channel
from .spaces import AnisotropicIndex, FastGrid, ProfileField
from .study import PRESETS, StudyConfig, get_preset, run_convergence_study

__version__ = "0.1.0"

__all__ = [
    "GeometryDescriptor",
    "annulus_gap",
    "flat_channel",
    "AnisotropicIndex",
    "FastGrid",
    "ProfileField",
    "PRESETS",
    "StudyConfig",
    "get_preset",
    "run_convergence_study",
    "__version__",
]
