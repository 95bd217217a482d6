"""Pilot-wave kinematics of hydrogen-like atoms.

Velocity fields, probability currents, particle trajectories and
time-dilation predictions for bound states, in both the non-relativistic
(Schrodinger) and relativistic (Dirac ground state) treatment. The
non-relativistic flow of every m = 0 eigenstate vanishes identically, while
the relativistic ground-state flow circulates azimuthally at speed
Z*alpha*sin(theta), so a bound unstable particle picks up a computable
lifetime dilation.
"""

from .coords import SphericalPoint, SphericalPoints, vector_to_cartesian, vector_to_spherical
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
    FourCurrent,
    SpinOrientation,
    bohm_velocity,
    closed_form_current,
    dirac_adjoint,
    dirac_current,
    dirac_ground_state,
    gamma_matrices,
    ground_state_norm,
    normalization_correction,
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
from .physics_core import FINE_STRUCTURE, SECONDS_PER_NATURAL_TIME, AtomConfig, make_atom
from .schrodinger_states import (
    PolarForm,
    QuantumNumbers,
    bohm_momentum,
    hydrogen_wavefunction,
    polar_decompose,
    probability_current,
    radial_function,
    state_norm,
)
from .trajectory_engine import (
    Trajectory,
    TrajectoryState,
    VelocityField,
    analytic_orbit,
    circular_orbit,
    dirac_velocity_field,
    integrate_trajectory,
    orbital_period,
    schrodinger_velocity_field,
)

__version__ = "0.1.0"

__all__ = [
    "AtomConfig",
    "DilationReport",
    "DomainError",
    "FINE_STRUCTURE",
    "FourCurrent",
    "OriginSingularityError",
    "PhaseSingularityError",
    "PolarForm",
    "QuantumNumbers",
    "SECONDS_PER_NATURAL_TIME",
    "SphericalPoint",
    "SphericalPoints",
    "SpinOrientation",
    "SupercriticalCouplingError",
    "Trajectory",
    "TrajectoryState",
    "TrajectorySingularityError",
    "VelocityField",
    "analytic_orbit",
    "bohm_momentum",
    "bohm_velocity",
    "circular_orbit",
    "closed_form_current",
    "dilated_lifetime",
    "excess_over_za_sq",
    "dirac_adjoint",
    "dirac_current",
    "dirac_ground_state",
    "dirac_velocity_field",
    "gamma_matrices",
    "ground_state_norm",
    "hydrogen_wavefunction",
    "integrate_trajectory",
    "lorentz_factor",
    "make_atom",
    "make_report",
    "mean_lorentz_factor",
    "mean_lorentz_factor_3d",
    "normalization_correction",
    "orbital_period",
    "polar_decompose",
    "probability_current",
    "radial_amplitude",
    "radial_function",
    "schrodinger_velocity_field",
    "small_component_ratio",
    "state_norm",
    "vector_to_cartesian",
    "vector_to_spherical",
]
