"""Physical constants, experiment parameter records and derived quantities.

All frequencies are angular (rad/s) internally.  JSON configuration keys
carry explicit unit suffixes; ``_Hz`` keys are converted to rad/s once at
the boundary.  Quantities span ~1e-34 to ~1e16, so derived formulas are
evaluated ratio-first.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

MASS_RATIO_FLOOR = 1e6
# SI inputs far beyond any physical scenario make products of a few fields
# underflow to 0 (a division by zero) or overflow; the records reject them
MIN_MAGNITUDE, MAX_MAGNITUDE = 1e-40, 1e40
LAMB_DICKE_FLAG = 0.3


class ParameterError(ValueError):
    """A scenario field violates its domain (message names the field)."""


class ConfigError(ValueError):
    """Malformed scenario configuration document."""


class ProtocolError(ValueError):
    """The protocol cannot run, or cannot be trusted, on these inputs."""


class ConstraintViolation(ProtocolError):
    """Feasibility constraints failed and no override was requested."""


def validated(record: type) -> type:
    """The NamedTuple ``record``, with a constructor that runs its
    ``_check``, as ``replace`` does; NamedTuple's ``_replace`` does not."""
    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self
    return type(record.__name__, (record,), {
        "__new__": __new__, "__slots__": (), "__doc__": record.__doc__,
        "__module__": record.__module__, "__qualname__": record.__qualname__})


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, validated like a new one."""
    return type(record)(**{**record._asdict(), **changes})


def check_fields(record, label: str, non_negative=()) -> None:
    """Refuse a field of ``record`` that is a bool, is not a finite real
    number, is nonzero outside [MIN_MAGNITUDE, MAX_MAGNITUDE], or is not
    positive (non-negative if named in ``non_negative``).  A field may be
    None where None is its default.  Each message names ``label.field``."""
    for name, value in zip(record._fields, record):
        if value is None and record._field_defaults.get(name, 0) is None:
            continue
        where = f"{label}.{name}"
        if isinstance(value, bool):     # math reads True as 1
            raise ParameterError(f"{where} must be a real number, got bool")
        try:
            finite = math.isfinite(value)
        except OverflowError:           # an integer beyond 1.8e308
            raise ParameterError(f"{where} must be finite, got an integer "
                                 "beyond the float range") from None
        except TypeError:
            raise ParameterError(f"{where} must be a real number, got "
                                 f"{type(value).__name__}") from None
        # NaN slips past every x <= 0
        if not finite:
            raise ParameterError(f"{where} must be finite, got {value}")
        value = float(value)
        if value and not MIN_MAGNITUDE <= abs(value) <= MAX_MAGNITUDE:
            raise ParameterError(
                f"{where} = {value:g} is outside the supported magnitude "
                f"range [{MIN_MAGNITUDE:g}, {MAX_MAGNITUDE:g}]")
        if not (value > 0 or value == 0 and name in non_negative):
            sign = "non-negative" if name in non_negative else "positive"
            raise ParameterError(f"{where} must be {sign}, got {value:g}")


@validated
class PhysicalConstants(NamedTuple):
    hbar: float = 1.054571817e-34       # J s
    c: float = 299792458.0              # m/s
    g_E: float = 9.81                   # m/s^2
    eps0: float = 8.8541878128e-12      # F/m

    def _check(self):
        check_fields(self, "constants")


CONSTANTS = PhysicalConstants()


@validated
class AtomSpec(NamedTuple):
    mass_kg: float
    transition_frequency_radps: float
    linewidth_radps: float
    dipole_moment_Cm: float

    def _check(self):
        check_fields(self, "atom")
        if self.transition_frequency_radps <= self.linewidth_radps:
            raise ParameterError(
                "atom.transition_frequency_radps must exceed linewidth_radps")


@validated
class NanoparticleSpec(NamedTuple):
    radius_m: float
    mass_kg: float

    def _check(self):
        check_fields(self, "nanoparticle")


@validated
class TrapConfig(NamedTuple):
    paul_frequency_stiff_radps: float
    paul_frequency_soft_radps: float
    wavelength_m: float
    intensity_W_per_m2: float
    detuning_radps: float
    raman_detuning_radps: float
    raman_wavevector_radpm: float
    separation_m: float
    radiation_pressure_force_N: float

    def _check(self):
        check_fields(self, "trap", non_negative=("radiation_pressure_force_N",))
        if self.paul_frequency_soft_radps >= self.paul_frequency_stiff_radps:
            raise ParameterError(
                "trap.paul_frequency_soft_radps must be below "
                "paul_frequency_stiff_radps")


@validated
class DisplacementBeam(NamedTuple):
    intensity_W_per_m2: float
    duration_s: float

    def _check(self):
        check_fields(self, "beam")


@validated
class ProtocolTimings(NamedTuple):
    free_fall_duration_s: float
    freefall_force_N: float = 0.0
    superposition_size_m: float | None = None

    def _check(self):
        check_fields(self, "protocol", non_negative=(
            "freefall_force_N", "superposition_size_m"))


@validated
class PhysicalScenario(NamedTuple):
    atom: AtomSpec
    nanoparticle: NanoparticleSpec
    trap: TrapConfig
    beam: DisplacementBeam
    protocol: ProtocolTimings
    constants: PhysicalConstants = CONSTANTS

    @property
    def total_mass_kg(self) -> float:
        """Nanoparticle plus atom: the mass that falls and is trapped."""
        return self.nanoparticle.mass_kg + self.atom.mass_kg

    def _check(self):
        ratio = self.nanoparticle.mass_kg / self.atom.mass_kg
        if ratio < MASS_RATIO_FLOOR:
            warnings.warn(
                f"nanoparticle/atom mass ratio {ratio:.3g} is below "
                f"{MASS_RATIO_FLOOR:.0e}; the heavy-particle approximation "
                "degrades", stacklevel=3)     # past __new__


def grav_coupling(mass_kg: float, omega_radps: float,
                  constants: PhysicalConstants = CONSTANTS) -> float:
    """Gravitational drive frequency g = g_E sqrt(m / (2 hbar omega))."""
    if mass_kg <= 0:
        raise ParameterError("mass_kg must be positive")
    if omega_radps <= 0:
        raise ParameterError("omega_radps must be positive")
    return constants.g_E * math.sqrt(
        (mass_kg / constants.hbar) / (2.0 * omega_radps))


def cubic_phase(phi_grav: float, omega_radps: float, t_s: float) -> float:
    """Cubic correction phi3 = -phi_grav (w t)^2 / 6 to the gravitational
    phase of a fall of duration t in a trap of frequency w."""
    return -phi_grav * (omega_radps * t_s) ** 2 / 6.0


def zero_point_motion(mass_kg: float, omega_radps: float,
                      constants: PhysicalConstants = CONSTANTS) -> float:
    if mass_kg <= 0:
        raise ParameterError("mass_kg must be positive")
    if omega_radps <= 0:
        raise ParameterError("omega_radps must be positive")
    return math.sqrt((constants.hbar / mass_kg) / (2.0 * omega_radps))


# --- JSON scenario ingestion -------------------------------------------------

_TYPES = {
    "atom": AtomSpec,
    "nanoparticle": NanoparticleSpec,
    "trap": TrapConfig,
    "beam": DisplacementBeam,
    "protocol": ProtocolTimings,
}

# the records are the one source of keys, and of which keys have defaults
_SCHEMA = {section: set(cls._fields) for section, cls in _TYPES.items()}
_REQUIRED = {section: set(cls._fields) - set(cls._field_defaults)
             for section, cls in _TYPES.items()}


def _normalise_key(section: str, key: str, value) -> tuple[str, float]:
    """Map a ``_Hz`` suffixed key onto its rad/s twin."""
    if key.endswith("_Hz"):
        base = key[:-3] + "_radps"
        if base in _SCHEMA[section]:
            return base, value * TWO_PI
    return key, value


def scenario_from_dict(doc: dict) -> PhysicalScenario:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown scenario section(s): {sorted(unknown)}")
    missing = set(_REQUIRED) - set(doc)
    if missing:
        raise ConfigError(f"missing scenario section(s): {sorted(missing)}")
    kwargs = {}
    for section, allowed in _SCHEMA.items():
        raw = doc[section]
        if not isinstance(raw, dict):
            raise ConfigError(f"section '{section}' must be an object")
        values = {}
        for key, value in raw.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"key '{section}.{key}' must be a number")
            try:
                value = float(value)
            except OverflowError:       # a JSON integer beyond 1.8e308
                raise ConfigError(
                    f"key '{section}.{key}' must be finite, got an integer "
                    "beyond the float range") from None
            key, value = _normalise_key(section, key, value)
            if key not in allowed:
                raise ConfigError(f"unknown key '{section}.{key}'")
            # only an _Hz key and its rad/s twin can land on one field
            if key in values:
                raise ConfigError(
                    f"keys '{section}.{key[:-6]}_Hz' and '{section}.{key}' "
                    "give the same frequency twice; keep one")
            values[key] = value
        missing_keys = _REQUIRED[section] - set(values)
        if missing_keys:
            raise ConfigError(
                f"missing key(s) in '{section}': {sorted(missing_keys)}")
        try:
            kwargs[section] = _TYPES[section](**values)
        except ParameterError as exc:     # the message names section.field
            raise ConfigError(str(exc)) from exc
    return PhysicalScenario(**kwargs)


# shipped preset names; figure_transient is the same document as discussion
_PRESETS = {"discussion": "discussion", "figure_transient": "discussion"}


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing a key that appears twice."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"key '{key}' appears twice in one object")
        members[key] = value
    return members


def load_scenario(name: str | Path) -> PhysicalScenario:
    """Read a scenario from a regular JSON file, or from a shipped preset
    named by its stem (``discussion`` or ``figure_transient``)."""
    path = Path(name)
    # a regular file only: '' is '.', and a directory may share a preset's name
    if not path.is_file():
        stem = str(name).removesuffix(".json")
        if stem not in _PRESETS:
            raise ConfigError(
                f"config '{name}' is neither an existing file nor a shipped "
                f"preset (available presets: {', '.join(_PRESETS)})")
        path = Path(__file__).with_name("presets") / f"{_PRESETS[stem]}.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_members)
    except OSError as exc:              # e.g. no read permission
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})"
                          ) from exc
    except (ValueError, RecursionError) as exc:  # > 4300 digits, too deep
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc)
