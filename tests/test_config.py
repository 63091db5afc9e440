"""Run-configuration parsing, validation, canonical serialization."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
import yaml

from trilinear import FockDim
from trilinear.config import (
    ConfigError,
    ConfigParseError,
    MAX_ROWS,
    MAX_SHOTS,
    SECTIONS,
    ConfigValueError,
    RunConfig,
    StateSpec,
    UnknownKeyError,
    build_radial_state,
    config_hash,
    parse_config,
    parse_descriptor,
    serialize_config,
)

EXAMPLE = """
experiment: wigner
trap:
  omega_z_hz: 0.80e6
measurement:
  shots: 250
  seed: 7
state: cat:1.73:pi:minus
grid:
  extent: 2.0
  points: 21
"""


def test_empty_config_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.trap.omega_x_hz == pytest.approx(0.99e6)
    assert cfg.trap.omega_y_hz == pytest.approx(0.90e6)
    assert cfg.trap.omega_z_hz == pytest.approx(0.75e6)
    assert cfg.measurement.eta == pytest.approx(0.86)
    assert cfg.simulation.parking_hz == pytest.approx(35e3)
    assert cfg.simulation.tau_slow_s == pytest.approx(2e-3)
    assert cfg.simulation.tau_fast_s == pytest.approx(20e-6)
    assert (cfg.simulation.radial_dim, cfg.simulation.axial_dim) == (40, 20)


def test_partial_section_keeps_other_defaults():
    cfg = parse_config(EXAMPLE)
    assert cfg.trap.omega_z_hz == pytest.approx(0.80e6)
    assert cfg.trap.omega_x_hz == pytest.approx(0.99e6)
    assert cfg.measurement.shots == 250
    assert cfg.measurement.eta == pytest.approx(0.86)
    assert cfg.state == "cat:1.73:pi:minus"


def test_unknown_key_rejected_with_path():
    with pytest.raises(UnknownKeyError) as err:
        parse_config("trap:\n  omega_q_hz: 1.0e6\n")
    assert "trap.omega_q_hz" in str(err.value)
    with pytest.raises(UnknownKeyError):
        parse_config("fraapulation: 3\n")


# a valid value other than the default for every field of every section
SECTION_VALUES = {
    "trap": {"omega_x_hz": 1.0e6, "omega_y_hz": 0.91e6, "omega_z_hz": 0.74e6},
    "simulation": {"radial_dim": 12, "axial_dim": 6, "guard_band": 1,
                   "parking_hz": 30e3, "tau_slow_s": 1e-3, "tau_fast_s": 10e-6,
                   "step_s": 1e-6},
    "measurement": {"eta": 0.9, "shots": 100, "seed": 7},
    "grid": {"extent": 2.0, "points": 11},
    "oscillation": {"n_initial": 1, "hold_max_s": 1e-3, "hold_points": 17,
                    "envelope_tau_s": 5e-3},
    "crossing": {"span_hz": 10e3, "points": 11},
    "converge": {"radial_dims": [8, 12], "step_fractions": [1.0, 0.5]},
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_every_section_field_parses(section):
    # a section added to RunConfig must be added to SECTION_VALUES too
    values = SECTION_VALUES[section]
    defaults = SECTIONS[section]()
    assert set(values) == {f.name for f in dataclasses.fields(defaults)}
    parsed = getattr(parse_config(yaml.safe_dump({section: values})), section)
    for name, value in values.items():
        want = tuple(value) if isinstance(value, list) else value
        assert getattr(parsed, name) == want != getattr(defaults, name)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_unknown_section_key_exit_code(tmp_path, capsys, section):
    from trilinear.cli import main

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  bogus: 1\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"path={section}.bogus" in capsys.readouterr().err


def test_parse_error_carries_line_and_column():
    with pytest.raises(ConfigParseError) as err:
        parse_config("trap: [unclosed\n")
    assert "line" in str(err.value)


def test_negative_shots_rejected():
    with pytest.raises(ConfigValueError):
        parse_config("measurement:\n  shots: -5\n")


def test_shots_past_the_binomial_limit_rejected():
    # numpy's binomial draw takes at most 2^63 - 1 shots
    assert MAX_SHOTS == 2 ** 63 - 1
    assert parse_config(f"measurement:\n  shots: {MAX_SHOTS}\n"
                        ).measurement.shots == MAX_SHOTS
    with pytest.raises(ConfigValueError) as err:
        parse_config(f"measurement:\n  shots: {MAX_SHOTS + 1}\n")
    assert err.value.path == "measurement.shots"


@pytest.mark.parametrize("section, key, largest", [
    ("grid", "points", math.isqrt(MAX_ROWS)),  # points^2 grid rows
    ("oscillation", "hold_points", MAX_ROWS),
    ("crossing", "points", MAX_ROWS),
])
def test_row_counts_past_the_cap_rejected(section, key, largest):
    # validated, never allocated
    cfg = parse_config(f"{section}:\n  {key}: {largest}\n")
    assert getattr(getattr(cfg, section), key) == largest
    with pytest.raises(ConfigValueError) as err:
        parse_config(f"{section}:\n  {key}: {largest + 1}\n")
    assert err.value.path == f"{section}.{key}"


def test_wrong_types_rejected():
    with pytest.raises(ConfigValueError):
        parse_config("measurement:\n  shots: many\n")
    with pytest.raises(ConfigValueError):
        parse_config("state: 17\n")
    with pytest.raises(ConfigValueError):
        parse_config("trap: 3\n")


@pytest.mark.parametrize("text, ascii_text, path", [
    ('simulation: {parking_hz: "\u0663\u0665e3"}\n',
     'simulation: {parking_hz: "35e3"}\ntrap: {omega_x_hz: 0.99e6}\n',
     "simulation.parking_hz"),
    ('converge: {step_fractions: ["\u0660.\u0665"]}\n',
     'converge: {step_fractions: ["0.5"]}\n', "converge.step_fractions"),
], ids=["parking-arabic-indic-digits", "step-fraction-arabic-indic-digits"])
def test_number_with_digits_other_than_ascii_rejected(text, ascii_text, path):
    # float() reads them, so they read as 35 kHz and 0.5, where int fields
    # refuse the same digits; the ASCII text is still a number
    with pytest.raises(ConfigValueError, match="expected a number") as err:
        parse_config(text)
    assert err.value.path == path
    assert parse_config(ascii_text) == parse_config(ascii_text.replace('"', ""))


@pytest.mark.parametrize("key", ["radial_dims", "step_fractions"])
def test_converge_section_is_checked_when_no_experiment_is_named(key):
    # an empty list reached convergence_report, which raised IndexError;
    # the runs that do not read the section still leave it unchecked
    text = f"converge:\n  {key}: []\n"
    with pytest.raises(ConfigValueError) as err:
        parse_config(text)
    assert err.value.path == f"converge.{key}"
    assert getattr(parse_config("experiment: modes\n" + text).converge, key) == ()


def test_benchmark_workload_configs_are_accepted(monkeypatch):
    # perfbench builds each workload's config outside the CLI, with no
    # experiment named, so the converge section is checked there too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    assert len(workloads.WORKLOADS) == 3
    for workload in workloads.WORKLOADS.values():
        assert isinstance(workloads.load_config(workload.config), RunConfig)


def test_trap_hierarchy_validated():
    with pytest.raises(ConfigValueError):
        parse_config("trap:\n  omega_z_hz: 1.2e6\n")  # above omega_x


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigValueError):
        parse_config("experiment: teleport\n")


def test_errors_are_machine_readable():
    try:
        parse_config("measurement:\n  shots: -5\n")
    except ConfigError as e:
        assert str(e).startswith("config-error kind=value path=measurement.shots")
    else:
        pytest.fail("no error raised")


def test_roundtrip_is_idempotent():
    cfg = parse_config(EXAMPLE)
    canonical = serialize_config(cfg)
    assert parse_config(canonical) == cfg
    assert serialize_config(parse_config(canonical)) == canonical


def test_config_hash_tracks_content():
    base = parse_config(EXAMPLE)
    assert config_hash(base) == config_hash(parse_config(EXAMPLE))
    other = parse_config(EXAMPLE.replace("seed: 7", "seed: 8"))
    assert config_hash(other) != config_hash(base)


@pytest.mark.parametrize("spelling", ["fock:1\n", " fock : 1 ", "\tfock:1"])
def test_state_descriptor_whitespace_hashes_the_same(spelling):
    # the whitespace around the descriptor and its fields is not part of
    # the run: YAML, RunConfig and dataclasses.replace all give `fock:1`
    canonical = RunConfig(state="fock:1")
    # a JSON string is a YAML double-quoted scalar
    for cfg in (RunConfig(state=spelling),
                parse_config(f"state: {json.dumps(spelling)}"),
                dataclasses.replace(RunConfig(), state=spelling)):
        assert cfg.state == "fock:1"
        assert config_hash(cfg) == config_hash(canonical)


# ---------------------------------------------------------------------------
# state descriptors


def test_descriptor_fock():
    assert parse_descriptor("fock:2").kind == "fock"
    assert parse_descriptor("fock:2").params == (2,)


def test_descriptor_coherent_complex():
    spec = parse_descriptor("coherent:1.73")
    assert spec.params == (1.73 + 0j,)
    assert parse_descriptor("coherent:1+2j").params == (1 + 2j,)


def test_descriptor_cat_variants():
    spec = parse_descriptor("cat:1.73:pi:minus")
    alpha, phi, sign = spec.params
    assert alpha == 1.73 + 0j and phi == pytest.approx(math.pi) and sign == -1
    spec = parse_descriptor("cat:0.8:pi/2:plus")
    assert spec.params[1] == pytest.approx(math.pi / 2)
    assert spec.params[2] == +1
    spec = parse_descriptor("cat:0.8:1.25:-")
    assert spec.params[1] == pytest.approx(1.25)


def test_descriptor_product():
    # no subcommand prepares a two-mode product state, so the descriptor is
    # rejected at parse time rather than by every run
    with pytest.raises(ConfigValueError, match="unrecognized state descriptor"):
        parse_descriptor("product:2:0")


@pytest.mark.parametrize("bad", [
    "fock", "fock:x", "fock:-1", "coherent:abc", "cat:1.0:pi", "cat:1:q:plus",
    "cat:1:pi:maybe", "squeezed:2", "product:a:b",
])
def test_bad_descriptors_rejected(bad):
    with pytest.raises(ConfigValueError):
        parse_descriptor(bad)


@pytest.mark.parametrize("text, ascii_text", [
    ("fock:\u0663", "fock:3"),
    ("coherent:\u0661.\u0660", "coherent:1.0"),
    ("cat:\u0661:pi/\u0662:plus", "cat:1:pi/2:plus"),
], ids=["fock-arabic-indic-digit", "coherent-arabic-indic-digits",
        "cat-arabic-indic-digits"])
def test_descriptor_with_digits_other_than_ascii_rejected(text, ascii_text):
    # int(), float() and complex() read them, so each parsed as its ASCII
    # spelling
    with pytest.raises(ConfigValueError, match="not ASCII") as err:
        parse_config(f'state: "{text}"\n')
    assert err.value.path == "state"
    assert parse_config(f'state: "{ascii_text}"\n').state == ascii_text


def test_build_radial_state_kinds():
    dim = FockDim(30)
    assert build_radial_state(parse_descriptor("fock:2"), dim).amplitudes[2] == 1.0
    coh = build_radial_state(parse_descriptor("coherent:1.0"), dim)
    assert abs(coh.amplitudes[0]) == pytest.approx(math.exp(-0.5), abs=1e-9)
    cat = build_radial_state(parse_descriptor("cat:1.0:pi:minus"), dim)
    assert abs(cat.amplitudes[0]) < 1e-12
    with pytest.raises(ConfigValueError):
        build_radial_state(StateSpec("product", (1, 0)), dim)
