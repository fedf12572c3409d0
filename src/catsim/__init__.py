"""catsim: simulator and feasibility toolkit for the atom-nanoparticle
Schrodinger-cat protocol.

Modules:
    params       physical constants, scenario records, JSON ingestion
    classical    closed-form classical trajectories + RK4 oracle
    gaussian     coherent-state algebra and closed-form quantum evolutions,
                 each written once (the quench and overlap the kernel runs)
    fock_oracle  truncated number-basis brute-force oracle, no closed forms
    protocol     the interferometric protocol as one closed-form kernel
                 over gaussian's evolutions
    feasibility  experimental design formulas and constraint grading
    verify       oracle-equivalence suite
    cli          command-line front end
"""

from .params import (
    CONSTANTS,
    AtomSpec,
    ConfigError,
    DisplacementBeam,
    NanoparticleSpec,
    ParameterError,
    PhysicalConstants,
    PhysicalScenario,
    ProtocolTimings,
    TrapConfig,
    grav_coupling,
    load_scenario,
    scenario_from_dict,
    zero_point_motion,
)
from .gaussian import CoherentBranch
from .protocol import (
    Coherent,
    ProtocolResult,
    ThermalSample,
    run_protocol,
)
from .feasibility import FeasibilityReport, constraint_check

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "AtomSpec",
    "Coherent",
    "CoherentBranch",
    "ConfigError",
    "DisplacementBeam",
    "FeasibilityReport",
    "NanoparticleSpec",
    "ParameterError",
    "PhysicalConstants",
    "PhysicalScenario",
    "ProtocolResult",
    "ProtocolTimings",
    "ThermalSample",
    "TrapConfig",
    "constraint_check",
    "grav_coupling",
    "load_scenario",
    "run_protocol",
    "scenario_from_dict",
    "zero_point_motion",
]
