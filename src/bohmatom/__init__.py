"""Pilot-wave kinematics of hydrogen-like atoms.

Velocity fields, probability currents, particle trajectories and
time-dilation predictions for bound states, in both the non-relativistic
(Schrodinger) and relativistic (Dirac ground state) treatment. The
non-relativistic flow of every m = 0 eigenstate vanishes identically, while
the relativistic ground-state flow circulates azimuthally at speed
Z*alpha*sin(theta), so a bound unstable particle picks up a computable
lifetime dilation.

The public names are imported from their submodules on first access
(PEP 562), so importing the package, or a submodule that needs no numpy such
as dilation, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_SUBMODULE_EXPORTS = {
    "coords": ["SphericalPoint", "SphericalPoints", "vector_to_cartesian"],
    "dilation": ["DilationReport", "dilated_lifetime", "excess_over_za_sq", "make_report", "mean_lorentz_factor"],
    "dirac_states": [
        "bohm_velocity", "closed_form_current", "dirac_adjoint", "dirac_current", "dirac_ground_state",
        "gamma_matrices", "ground_state_norm", "mean_lorentz_factor_3d", "radial_amplitude", "small_component_ratio",
    ],
    "errors": [
        "DomainError", "OriginSingularityError", "PhaseSingularityError", "SupercriticalCouplingError",
        "TrajectorySingularityError",
    ],
    "models": ["DiracGroundState", "SchrodingerEigenstate", "lorentz_factor"],
    "physics_core": ["FINE_STRUCTURE", "AtomConfig", "SpinOrientation", "make_atom"],
    "schrodinger_states": [
        "QuantumNumbers", "bohm_momentum", "hydrogen_wavefunction", "polar_decompose", "probability_current",
        "radial_function", "state_norm",
    ],
    "trajectory_engine": ["Trajectory", "VelocityField", "circular_orbit_xyz", "integrate_trajectory"],
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
