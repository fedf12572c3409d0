import copy
import math

import pytest

from catsim.feasibility import constraint_check
from catsim.params import (
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
    replace,
    scenario_from_dict,
    zero_point_motion,
)


def test_constants_values():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.g_E == 9.81
    assert CONSTANTS.eps0 == 8.8541878128e-12


def test_grav_coupling_hand_value():
    # g = g_E sqrt(m / (2 hbar w)) for m = 1e-15 kg, w = 5e-6 rad/s
    g = grav_coupling(1e-15, 5e-6)
    expected = 9.81 * math.sqrt(1e-15 / (2.0 * 1.054571817e-34 * 5e-6))
    assert g == pytest.approx(expected, rel=1e-15)
    assert g == pytest.approx(9.55e12, rel=0.01)


def test_grav_coupling_scaling():
    assert grav_coupling(4e-15, 1.0) == pytest.approx(
        2.0 * grav_coupling(1e-15, 1.0), rel=1e-14)
    assert grav_coupling(1e-15, 4.0) == pytest.approx(
        0.5 * grav_coupling(1e-15, 1.0), rel=1e-14)


def test_zero_point_motion_value():
    # delta_R = sqrt(hbar / (2 m w))
    d = zero_point_motion(1e-15, 5e-6)
    assert d == pytest.approx(
        math.sqrt(1.054571817e-34 / (2.0 * 1e-15 * 5e-6)), rel=1e-15)
    assert d == pytest.approx(1.03e-7, rel=0.01)


def test_grav_coupling_domain_errors():
    with pytest.raises(ParameterError):
        grav_coupling(-1.0, 1.0)
    with pytest.raises(ParameterError):
        grav_coupling(1.0, 0.0)
    with pytest.raises(ParameterError):
        zero_point_motion(1.0, -2.0)


def test_derive_discussion(discussion):
    omega_n = discussion.trap.paul_frequency_soft_radps
    m_total = discussion.nanoparticle.mass_kg + discussion.atom.mass_kg
    assert m_total == pytest.approx(1e-15, rel=1e-9)
    assert constraint_check(discussion).eta == pytest.approx(0.645, rel=0.01)
    assert grav_coupling(m_total, omega_n) == pytest.approx(9.55e12, rel=0.01)
    assert zero_point_motion(m_total, omega_n) == pytest.approx(1.027e-7,
                                                                rel=0.01)


def test_atom_spec_validation():
    with pytest.raises(ParameterError, match="mass_kg"):
        AtomSpec(-1.0, 2e15, 3e7, 4e-29)
    with pytest.raises(ParameterError, match="linewidth"):
        AtomSpec(2e-25, 2e15, -3e7, 4e-29)
    with pytest.raises(ParameterError, match="transition_frequency"):
        AtomSpec(2e-25, 1e7, 3e7, 4e-29)


def test_trap_orders(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    doc["trap"]["paul_frequency_soft_radps"] = 200.0
    with pytest.raises(ConfigError, match="soft"):
        scenario_from_dict(doc)


def test_hz_keys_converted(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    radps = doc["trap"].pop("paul_frequency_stiff_radps")
    doc["trap"]["paul_frequency_stiff_Hz"] = radps / (2.0 * math.pi)
    s = scenario_from_dict(doc)
    assert s.trap.paul_frequency_stiff_radps == pytest.approx(radps, rel=1e-12)


@pytest.mark.parametrize("hz_first", [True, False])
def test_frequency_given_twice_rejected(discussion_doc, hz_first):
    """An _Hz key and its rad/s twin name one field; neither order wins."""
    doc = copy.deepcopy(discussion_doc)
    radps = doc["trap"].pop("paul_frequency_stiff_radps")
    both = {"paul_frequency_stiff_Hz": radps / (2.0 * math.pi),
            "paul_frequency_stiff_radps": radps}
    doc["trap"].update(both if hz_first else dict(reversed(both.items())))
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    for key in both:
        assert f"trap.{key}" in str(err.value)


def test_unknown_key_rejected(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    doc["trap"]["bogus"] = 1.0
    with pytest.raises(ConfigError, match="trap.bogus"):
        scenario_from_dict(doc)


def test_unknown_section_rejected(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    doc["laser"] = {}
    with pytest.raises(ConfigError, match="laser"):
        scenario_from_dict(doc)


def test_missing_section_lists_names():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({})
    for section in ("atom", "nanoparticle", "trap", "beam", "protocol"):
        assert section in str(err.value)


def test_missing_key_named(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    del doc["atom"]["mass_kg"]
    with pytest.raises(ConfigError, match="mass_kg"):
        scenario_from_dict(doc)


def test_non_numeric_rejected(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    doc["atom"]["mass_kg"] = "heavy"
    with pytest.raises(ConfigError, match="atom.mass_kg"):
        scenario_from_dict(doc)
    doc["atom"]["mass_kg"] = True
    with pytest.raises(ConfigError, match="atom.mass_kg"):
        scenario_from_dict(doc)
    doc["atom"]["mass_kg"] = 2.207e-25
    del doc["trap"]["paul_frequency_stiff_radps"]
    doc["trap"]["paul_frequency_stiff_Hz"] = "15.9"
    with pytest.raises(ConfigError, match="trap.paul_frequency_stiff_Hz"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_non_finite_rejected(discussion_doc, value):
    doc = copy.deepcopy(discussion_doc)
    doc["trap"]["paul_frequency_soft_radps"] = value
    with pytest.raises(ConfigError, match="trap.paul_frequency_soft_radps"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [1e-320, 1e-41, 1e41])
def test_magnitude_out_of_range_rejected(discussion_doc, value):
    """Far outside SI physics, products of a few fields underflow to 0."""
    doc = copy.deepcopy(discussion_doc)
    doc["trap"]["wavelength_m"] = value
    with pytest.raises(ConfigError, match="trap.wavelength_m"):
        scenario_from_dict(doc)


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(p)


def test_load_scenario_unreadable_path(tmp_path):
    # a directory is neither a regular file nor a preset name
    with pytest.raises(ConfigError, match="neither an existing file nor a "
                       "shipped preset"):
        load_scenario(tmp_path)


def test_load_scenario_preset_names(discussion):
    assert load_scenario("discussion") == discussion
    assert load_scenario("figure_transient") == discussion


def test_mass_ratio_warning(discussion_doc):
    doc = copy.deepcopy(discussion_doc)
    doc["nanoparticle"]["mass_kg"] = 1e-22   # ratio ~ 4.5e2 < 1e6
    with pytest.warns(UserWarning, match="mass ratio"):
        scenario_from_dict(doc)


def test_scenario_immutable(discussion):
    with pytest.raises(Exception):
        discussion.atom.mass_kg = 0.0


def test_replace_checks_the_new_record(discussion):
    trap = discussion.trap
    assert replace(trap, detuning_radps=2.0) \
        == trap._replace(detuning_radps=2.0)
    with pytest.raises(ParameterError, match="must be below"):
        replace(trap,
                paul_frequency_soft_radps=trap.paul_frequency_stiff_radps)


_SECTIONS = {"constants": PhysicalConstants, "atom": AtomSpec,
             "nanoparticle": NanoparticleSpec, "trap": TrapConfig,
             "beam": DisplacementBeam, "protocol": ProtocolTimings}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e41,
                                   1e-41, "x", True, False],
                         ids=["nan", "inf", "-inf", "1e41", "1e-41", "str",
                              "true", "false"])
@pytest.mark.parametrize("section,field", [
    (section, field) for section, cls in _SECTIONS.items()
    for field in cls._fields])
def test_every_field_refuses_a_bad_value(discussion, section, field, value):
    """A record built in Python checks each field as the JSON loader does:
    finite, real (not a bool), and nonzero only inside [1e-40, 1e40]."""
    with pytest.raises(ParameterError, match=rf"\b{section}\.{field}\b"):
        replace(getattr(discussion, section), **{field: value})
