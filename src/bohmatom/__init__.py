"""Pilot-wave kinematics of hydrogen-like atoms.

Velocity fields, probability currents, particle trajectories and
time-dilation predictions for bound states, in both the non-relativistic
(Schrodinger) and relativistic (Dirac ground state) treatment. The
non-relativistic flow of every m = 0 eigenstate vanishes identically, while
the relativistic ground-state flow circulates azimuthally at speed
Z*alpha*sin(theta), so a bound unstable particle picks up a computable
lifetime dilation.
"""

from .coords import SphericalPoint, SphericalPoints, vector_to_cartesian
from .dilation import (
    DilationReport,
    dilated_lifetime,
    excess_over_za_sq,
    lorentz_factor,
    make_report,
    mean_lorentz_factor,
    mean_lorentz_factor_3d,
)
from .dirac_states import (
    SpinOrientation,
    bohm_velocity,
    closed_form_current,
    dirac_adjoint,
    dirac_current,
    dirac_ground_state,
    gamma_matrices,
    ground_state_norm,
    radial_amplitude,
    small_component_ratio,
)
from .errors import (
    DomainError,
    OriginSingularityError,
    PhaseSingularityError,
    SupercriticalCouplingError,
    TrajectorySingularityError,
)
from .models import DiracGroundState, SchrodingerEigenstate
from .physics_core import FINE_STRUCTURE, AtomConfig, make_atom
from .schrodinger_states import (
    QuantumNumbers,
    bohm_momentum,
    hydrogen_wavefunction,
    polar_decompose,
    probability_current,
    radial_function,
    state_norm,
)
from .trajectory_engine import Trajectory, VelocityField, circular_orbit_xyz, integrate_trajectory

__version__ = "0.1.0"

__all__ = [
    "AtomConfig",
    "DilationReport",
    "DiracGroundState",
    "DomainError",
    "FINE_STRUCTURE",
    "OriginSingularityError",
    "PhaseSingularityError",
    "QuantumNumbers",
    "SchrodingerEigenstate",
    "SphericalPoint",
    "SphericalPoints",
    "SpinOrientation",
    "SupercriticalCouplingError",
    "Trajectory",
    "TrajectorySingularityError",
    "VelocityField",
    "bohm_momentum",
    "bohm_velocity",
    "circular_orbit_xyz",
    "closed_form_current",
    "dilated_lifetime",
    "excess_over_za_sq",
    "dirac_adjoint",
    "dirac_current",
    "dirac_ground_state",
    "gamma_matrices",
    "ground_state_norm",
    "hydrogen_wavefunction",
    "integrate_trajectory",
    "lorentz_factor",
    "make_atom",
    "make_report",
    "mean_lorentz_factor",
    "mean_lorentz_factor_3d",
    "polar_decompose",
    "probability_current",
    "radial_amplitude",
    "radial_function",
    "small_component_ratio",
    "state_norm",
    "vector_to_cartesian",
]
