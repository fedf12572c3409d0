import math

import pytest

from catsim.feasibility import (
    atom_trap_frequency,
    constraint_check,
    raman_coupling,
    superposition_size,
    trap_lifetime,
)
from catsim.params import ParameterError, replace


def test_atom_trap_frequency_value(discussion):
    res = atom_trap_frequency(discussion.atom, discussion.trap)
    # order of magnitude of the quoted 5e6 rad/s design value
    assert 5e6 / 3 < res.omega_a_radps < 5e6 * 3


def test_atom_trap_frequency_scalings(discussion):
    base = atom_trap_frequency(discussion.atom, discussion.trap).omega_a_radps
    trap4i = replace(discussion.trap, intensity_W_per_m2=4.0
                     * discussion.trap.intensity_W_per_m2)
    assert atom_trap_frequency(discussion.atom, trap4i
                               ).omega_a_radps == pytest.approx(2.0 * base,
                                                                rel=1e-12)
    trap4d = replace(discussion.trap, detuning_radps=4.0
                     * discussion.trap.detuning_radps)
    assert atom_trap_frequency(discussion.atom, trap4d
                               ).omega_a_radps == pytest.approx(0.5 * base,
                                                                rel=1e-12)
    # omega_a ~ 1/w, with the trap width w a fixed share of the wavelength
    trap2w = replace(discussion.trap, wavelength_m=2.0
                     * discussion.trap.wavelength_m)
    assert atom_trap_frequency(discussion.atom, trap2w
                               ).omega_a_radps == pytest.approx(0.5 * base,
                                                                rel=1e-12)


def test_atom_trap_frequency_blue_detuned(discussion):
    # the trap record refuses a blue-detuned trap itself, so
    # atom_trap_frequency and trap_lifetime never see one
    with pytest.raises(ParameterError, match=r"^trap\.detuning_radps "):
        replace(discussion.trap, detuning_radps=-1.0)


def test_trap_lifetime_value(discussion):
    tau = trap_lifetime(discussion.atom, discussion.trap)
    assert 0.5 < tau < 2.0


def test_trap_lifetime_linear_in_detuning(discussion):
    tau = trap_lifetime(discussion.atom, discussion.trap)
    trap2 = replace(discussion.trap,
                    detuning_radps=2.0 * discussion.trap.detuning_radps)
    assert trap_lifetime(discussion.atom, trap2) == pytest.approx(2.0 * tau,
                                                                  rel=1e-12)


def test_raman_coupling_value(discussion):
    omega = raman_coupling(discussion.atom, 1.0, 1e11)
    assert omega == pytest.approx(1084.0, rel=0.01)
    assert raman_coupling(discussion.atom, 4.0, 1e11) == pytest.approx(
        4.0 * omega, rel=1e-12)
    assert raman_coupling(discussion.atom, 1.0, 2e11) == pytest.approx(
        omega / 2.0, rel=1e-12)


def test_raman_coupling_domain(discussion):
    with pytest.raises(ParameterError):
        raman_coupling(discussion.atom, 1.0, 0.0)
    with pytest.raises(ParameterError):
        raman_coupling(discussion.atom, -1.0, 1e11)


def test_superposition_size_value(discussion):
    dx = superposition_size(discussion, 5e-6, 1e-10)
    assert 1e-14 / 3 < dx < 1e-14 * 3


def test_superposition_size_scalings(discussion):
    dx = superposition_size(discussion, 5e-6, 1e-10)
    assert superposition_size(discussion, 5e-7, 1e-10) == pytest.approx(
        10.0 * dx, rel=1e-12)
    assert superposition_size(discussion, 5e-6, 1e-12) == pytest.approx(
        dx / 100.0, rel=1e-12)
    with pytest.raises(ParameterError):
        superposition_size(discussion, 0.0, 1e-10)


def test_constraint_report_discussion(discussion):
    report = constraint_check(discussion)
    by_name = {v.name: v for v in report.verdicts}
    assert set(by_name) == {"lamb_dicke_floor", "coupling_ceiling",
                            "trap_lifetime", "quench_duration",
                            "freefall_force"}
    # the quoted trap-frequency window: floor near 5e-8, ceiling near 5e-4
    floor = by_name["lamb_dicke_floor"].lhs
    ceiling = by_name["coupling_ceiling"].rhs
    assert floor == pytest.approx(5e-8, rel=0.5)
    assert ceiling == pytest.approx(5e-4, rel=1.0)
    assert by_name["quench_duration"].lhs == pytest.approx(5e-12, rel=1e-9)
    assert by_name["quench_duration"].status == "pass"
    assert by_name["trap_lifetime"].status == "pass"
    assert by_name["freefall_force"].status == "pass"
    assert report.status in ("pass", "warn")
    assert report.phi_grav_rad == pytest.approx(0.930, abs=0.001)


def test_constraint_margins_are_ratios(discussion):
    report = constraint_check(discussion)
    for v in report.verdicts:
        if v.name == "trap_lifetime":
            assert v.margin == pytest.approx(v.lhs / v.rhs, rel=1e-12)
        elif v.lhs > 0:
            assert v.margin == pytest.approx(v.rhs / v.lhs, rel=1e-12)
        else:
            assert math.isinf(v.margin)


def test_constraint_grading_thresholds(discussion):
    # soft trap high enough to break the coupling ceiling -> fail
    bad = replace(discussion,
                  trap=replace(discussion.trap,
                               paul_frequency_soft_radps=1e-3))
    report = constraint_check(bad)
    by_name = {v.name: v for v in report.verdicts}
    assert by_name["coupling_ceiling"].status == "fail"
    assert report.status == "fail"
    assert report.exit_code == 3       # 2 is an input error


def test_report_deterministic(discussion):
    assert constraint_check(discussion) == constraint_check(discussion)


def test_report_monotone_in_intensity(discussion):
    lo = constraint_check(discussion).omega_a_radps
    brighter = replace(discussion,
                       trap=replace(discussion.trap,
                                    intensity_W_per_m2=2.0
                                    * discussion.trap.intensity_W_per_m2))
    assert constraint_check(brighter).omega_a_radps > lo


def test_decoherence_note_present(discussion):
    report = constraint_check(discussion)
    assert any("wavelength" in note for note in report.notes)
    assert any("Hz if read as cyclic" in note for note in report.notes)
