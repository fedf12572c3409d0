"""catsim: simulator and feasibility toolkit for the atom-nanoparticle
Schrodinger-cat protocol.

Modules:
    params       physical constants, scenario records, JSON ingestion
    classical    closed-form classical trajectories + RK4 oracle
    gaussian     coherent-state algebra and closed-form quantum evolutions,
                 each written once (the quench the kernel runs)
    fock_oracle  truncated number-basis brute-force oracle, no closed forms
    protocol     the interferometric protocol as one closed-form kernel
                 over gaussian's evolutions
    feasibility  experimental design formulas and constraint grading
    verify       oracle-equivalence suite
    cli          command-line front end
"""

import importlib

# each public name, and each submodule, is imported on first use, so that a
# command pays only for the modules it runs
_LAZY = {
    **{name: "params" for name in (
        "CONSTANTS", "AtomSpec", "ConfigError", "DisplacementBeam",
        "NanoparticleSpec", "ParameterError", "PhysicalConstants",
        "PhysicalScenario", "ProtocolTimings", "TrapConfig", "grav_coupling",
        "load_scenario", "scenario_from_dict", "zero_point_motion")},
    "CoherentBranch": "gaussian",
    **{name: "protocol" for name in (
        "Coherent", "ProtocolResult", "ThermalSample", "run_protocol")},
    "FeasibilityReport": "feasibility",
    "constraint_check": "feasibility",
    **{module: module for module in (
        "params", "classical", "gaussian", "fock_oracle", "protocol",
        "feasibility", "verify", "cli")},
}

__version__ = "0.1.0"

__all__ = [name for name, module in _LAZY.items() if name != module]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
