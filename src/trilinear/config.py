"""Run configuration: YAML parsing, validation, canonical serialization.

Frequencies in configuration files are plain /2pi values in Hz (the numbers
experimentalists quote); conversion to angular rad/s happens here, at the
boundary. Unknown keys are rejected. All defaults are the reference
experiment's parameters: trap (0.99, 0.90, 0.75) MHz, eta = 0.86, parking
detuning 35 kHz, RC constants 2 ms / 20 us.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any

import yaml

from .fock import FockDim, StateVector, TwoModeSpace, cat_state, coherent_state, fock_state
from .protocols import MAX_SHOTS
from .trap import YB171, TrapConfig, mode_params

EXPERIMENTS = ("modes", "oscillate", "crossing", "parity", "wigner", "converge")

TWO_PI = 2 * math.pi

# most rows of one output table (points squared for the Wigner grid), the
# figure of `dynamics.MAX_STEPS`: a larger table is refused before any of it
# is allocated
MAX_ROWS = 1 << 22

# most levels of one mode: one kernel step of a MAX_LEVELS x MAX_LEVELS space
# holds about 150 MiB of stacks, and they grow with the cube of the dims, so
# a larger dim is refused before anything is allocated
MAX_LEVELS = 1 << 8


class ConfigError(Exception):
    """Base class; stringifies to a machine-readable one-liner."""

    kind = "config"

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        # one line, whatever breaks the path or message holds
        super().__init__("\\n".join(
            f"config-error kind={self.kind} path={path}: {message}".splitlines()))


class ConfigParseError(ConfigError):
    kind = "parse"


class UnknownKeyError(ConfigError):
    kind = "unknown-key"


class ConfigValueError(ConfigError):
    kind = "value"


class ConfigIOError(ConfigError):
    """The config file cannot be read, or the output directory made."""

    kind = "io"


@dataclass(frozen=True)
class TrapSection:
    omega_x_hz: float = 0.99e6
    omega_y_hz: float = 0.90e6
    omega_z_hz: float = 0.75e6


@dataclass(frozen=True)
class SimulationSection:
    radial_dim: int = 40
    axial_dim: int = 20
    guard_band: int = 2
    parking_hz: float = 35e3
    tau_slow_s: float = 2e-3
    tau_fast_s: float = 20e-6
    step_s: float | None = None  # None: conservative default step


@dataclass(frozen=True)
class MeasurementSection:
    eta: float = 0.86
    shots: int = 500
    seed: int = 12345


@dataclass(frozen=True)
class GridSection:
    extent: float = 3.0
    points: int = 41


@dataclass(frozen=True)
class OscillationSection:
    n_initial: int = 2
    hold_max_s: float = 2e-3
    hold_points: int = 81
    envelope_tau_s: float | None = None


@dataclass(frozen=True)
class CrossingSection:
    span_hz: float = 20e3
    points: int = 81


@dataclass(frozen=True)
class ConvergeSection:
    radial_dims: tuple[int, ...] = (20, 30, 40)
    step_fractions: tuple[float, ...] = (1.0, 0.5, 0.25)

    @staticmethod
    def axial_dim(radial_dim: int) -> int:
        """The axial dim the truncation sweep pairs with a radial dim."""
        return max(3, radial_dim // 2)


@dataclass(frozen=True)
class RunConfig:
    experiment: str | None = None
    trap: TrapSection = field(default_factory=TrapSection)
    simulation: SimulationSection = field(default_factory=SimulationSection)
    measurement: MeasurementSection = field(default_factory=MeasurementSection)
    state: str = "fock:2"
    grid: GridSection = field(default_factory=GridSection)
    oscillation: OscillationSection = field(default_factory=OscillationSection)
    crossing: CrossingSection = field(default_factory=CrossingSection)
    converge: ConvergeSection = field(default_factory=ConvergeSection)
    exact: bool = False
    output: str = "out"

    def __post_init__(self):
        # one spelling per state for the hash and parity.csv's state cell:
        # no whitespace around the descriptor's fields
        object.__setattr__(self, "state", ":".join(
            part.strip() for part in str(self.state).split(":")))

    # -- derived objects ---------------------------------------------------

    def to_trap(self) -> TrapConfig:
        try:
            return TrapConfig(
                omega_x=TWO_PI * self.trap.omega_x_hz,
                omega_y=TWO_PI * self.trap.omega_y_hz,
                omega_z=TWO_PI * self.trap.omega_z_hz,
            )
        except ValueError as e:
            raise ConfigValueError("trap", str(e)) from e

    def to_space(self) -> TwoModeSpace:
        try:
            g = self.simulation.guard_band
            return TwoModeSpace(
                FockDim(self.simulation.radial_dim, g),
                FockDim(self.simulation.axial_dim, g),
            )
        except ValueError as e:
            raise ConfigValueError("simulation", str(e)) from e

    @property
    def parking(self) -> float:
        return TWO_PI * self.simulation.parking_hz


# the RunConfig fields that are sections, each with its dataclass
SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)
            if is_dataclass(f.default_factory)}


def _coerce(value: Any, f, path: str):
    target = f.type
    if value is None:
        if "None" in str(target):
            return None
        raise ConfigValueError(path, "null is not allowed here")
    base = str(target).split(" | ")[0]
    if base.startswith("tuple["):
        # each entry follows the rule of a scalar field of the entry's type
        if not isinstance(value, (list, tuple)):
            raise ConfigValueError(path, f"expected a list, got {value!r}")
        entry = base.removeprefix("tuple[").split(",")[0]
        return tuple(_coerce_scalar(x, entry, path) for x in value)
    return _coerce_scalar(value, base, path)


def _coerce_scalar(value: Any, base: str, path: str):
    if base == "bool":
        if not isinstance(value, bool):
            raise ConfigValueError(path, f"expected true/false, got {value!r}")
        return value
    if base == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigValueError(path, f"expected an integer, got {value!r}")
        return value
    if base == "float":
        # YAML 1.1 floats require a signed exponent; accept plain "0.99e6"
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigValueError(path, f"expected a number, got {value!r}")
        try:
            return float(value)
        except ValueError:  # a string that is not a number
            raise ConfigValueError(path, f"expected a number, got {value!r}") from None
        except OverflowError:  # an integer
            raise ConfigValueError(path, "integer outside the float range") from None
    if base == "str":
        if not isinstance(value, str):
            raise ConfigValueError(path, f"expected a string, got {value!r}")
        return value
    raise ConfigValueError(path, f"unsupported value {value!r}")


def _build(cls, data: Any, path: str):
    """The `cls` dataclass that a mapping of its field names holds, each
    section built in turn and each other value coerced to its field's type;
    null is every default. `path` is the mapping's own, "" at the top."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigValueError(path, f"expected a mapping, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise UnknownKeyError(where, "unknown key")
        section = known[key].default_factory
        kwargs[key] = (_build(section, value, where) if is_dataclass(section)
                       else _coerce(value, known[key], where))
    return cls(**kwargs)


def read_yaml(text: str) -> Any:
    """The value that PyYAML's safe loader builds from `text`."""
    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "?"
        raise ConfigParseError(where, e.problem or "invalid YAML") from e
    except (yaml.YAMLError, ValueError, AttributeError, RecursionError) as e:
        # PyYAML's constructors raise the others on a date that does not
        # exist, an integer of more digits than int() converts, `!!int 1.5`,
        # `!!timestamp x` or nesting past the interpreter's stack
        raise ConfigParseError("?", str(e)) from e


def build_config(data: Any) -> RunConfig:
    """The validated RunConfig that a configuration mapping, as read from
    YAML, holds; None is every default."""
    if data is not None and not isinstance(data, dict):
        raise ConfigParseError("top-level", "configuration must be a mapping")
    cfg = _build(RunConfig, data, "")
    validate_config(cfg)
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    return build_config(read_yaml(text))


def _check_finite(cfg: RunConfig) -> None:
    """ConfigValueError for a NaN or infinite number in any field or list,
    or a frequency f whose angular value 2 pi f, which a runner works in,
    overflows."""
    for top in fields(cfg):
        value = getattr(cfg, top.name)
        items = ([(f"{top.name}.{f.name}", getattr(value, f.name))
                  for f in fields(value)] if top.name in SECTIONS
                 else [(top.name, value)])
        for path, item in items:
            for x in item if isinstance(item, tuple) else (item,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ConfigValueError(path, f"must be a finite number, got {x}")
                if path.endswith("_hz") and not math.isfinite(TWO_PI * x):
                    raise ConfigValueError(path, f"2 pi x {x} Hz overflows a float")


def validate_config(cfg: RunConfig) -> None:
    _check_finite(cfg)
    if cfg.experiment is not None and cfg.experiment not in EXPERIMENTS:
        raise ConfigValueError(
            "experiment", f"must be one of {', '.join(EXPERIMENTS)}"
        )
    t = cfg.trap
    if min(t.omega_x_hz, t.omega_y_hz, t.omega_z_hz) <= 0:
        raise ConfigValueError("trap", "frequencies must be positive (Hz)")
    # every runner starts from the mode parameters: an overflow or a
    # vanishing frequency on the way is a configuration error
    try:
        p = mode_params(YB171, cfg.to_trap())
    except (ArithmeticError, ValueError) as e:
        raise ConfigValueError(
            "trap", f"mode parameters cannot be computed: {e}") from None
    if not all(map(math.isfinite, (p.omega_s, p.omega_r, p.z0, p.xi, p.delta))):
        raise ConfigValueError("trap", "mode parameters are not finite")
    s = cfg.simulation
    if s.radial_dim < 4 or s.axial_dim < 3:
        raise ConfigValueError(
            "simulation", "need radial_dim >= 4 and axial_dim >= 3"
        )
    for name in ("radial_dim", "axial_dim"):
        if getattr(s, name) > MAX_LEVELS:
            raise ConfigValueError(f"simulation.{name}",
                                   f"more than MAX_LEVELS = {MAX_LEVELS} levels")
    if s.guard_band < 0 or s.guard_band >= min(s.radial_dim, s.axial_dim):
        raise ConfigValueError("simulation.guard_band", "invalid guard band")
    if s.parking_hz <= 0 or s.tau_slow_s <= 0 or s.tau_fast_s <= 0:
        raise ConfigValueError("simulation", "time constants must be positive")
    for name in ("tau_slow_s", "tau_fast_s"):
        if not math.isfinite(5 * getattr(s, name)):  # a ramp runs for 5 tau
            raise ConfigValueError(f"simulation.{name}", "5 tau overflows a float")
    if s.step_s is not None and s.step_s <= 0:
        raise ConfigValueError("simulation.step_s", "step must be positive")
    # the radial levels outside the guard band
    top = s.radial_dim - 1 - s.guard_band
    m = cfg.measurement
    if not 0 < m.eta <= 1:
        raise ConfigValueError("measurement.eta", "eta must lie in (0, 1]")
    if not 1 <= m.shots <= MAX_SHOTS:
        raise ConfigValueError("measurement.shots",
                               f"shots must lie in [1, MAX_SHOTS = {MAX_SHOTS}]")
    if m.seed < 0:
        raise ConfigValueError("measurement.seed", "seed must be >= 0")
    parse_descriptor(cfg.state)
    if cfg.grid.extent <= 0 or cfg.grid.points < 2:
        raise ConfigValueError("grid", "need extent > 0 and points >= 2")
    o = cfg.oscillation
    if o.n_initial not in (1, 2):
        raise ConfigValueError("oscillation.n_initial", "must be 1 or 2")
    if cfg.experiment == "oscillate" and o.n_initial > top:
        raise ConfigValueError(
            "oscillation.n_initial",
            f"{o.n_initial} phonons exceed the radial levels 0..{top}")
    if o.hold_max_s <= 0 or o.hold_points < 8:
        raise ConfigValueError(
            "oscillation", "need hold_max_s > 0 and hold_points >= 8"
        )
    if o.envelope_tau_s is not None and o.envelope_tau_s <= 0:
        raise ConfigValueError("oscillation.envelope_tau_s", "must be positive")
    if cfg.crossing.span_hz <= 0 or cfg.crossing.points < 3:
        raise ConfigValueError("crossing", "need span_hz > 0 and points >= 3")
    for path, rows in (("grid.points", cfg.grid.points ** 2),
                       ("oscillation.hold_points", o.hold_points),
                       ("crossing.points", cfg.crossing.points)):
        if rows > MAX_ROWS:
            raise ConfigValueError(
                path, f"would write more than MAX_ROWS = {MAX_ROWS} rows")
    if cfg.experiment not in (None, "converge"):
        return  # of the runs, only converge reads the converge section
    c = cfg.converge
    dims = list(c.radial_dims)
    if not dims or any(d < 4 for d in dims) or dims != sorted(set(dims)):
        raise ConfigValueError(
            "converge.radial_dims", "must be a strictly increasing list of dims >= 4"
        )
    if dims[-1] > MAX_LEVELS:
        raise ConfigValueError("converge.radial_dims",
                               f"{dims[-1]} is more than MAX_LEVELS = {MAX_LEVELS} levels")
    for d in dims:
        a = c.axial_dim(d)
        if s.guard_band > min(d, a) - 2:
            raise ConfigValueError(
                "converge.radial_dims",
                f"{d}x{a} cannot hold guard band {s.guard_band} in both modes",
            )
    fractions = list(c.step_fractions)
    if not fractions or any(not 0 < fr <= 1 for fr in fractions) or (
            fractions != sorted(fractions, reverse=True)):
        raise ConfigValueError(
            "converge.step_fractions", "must be a decreasing list in (0, 1]"
        )


def _to_plain(obj) -> Any:
    if hasattr(obj, "__dataclass_fields__"):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    return obj


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML form: field order fixed, defaults written out."""
    return yaml.safe_dump(_to_plain(cfg), sort_keys=False, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    """Hash of everything that determines the data rows. The output path is
    excluded: the same run written elsewhere is the same run."""
    normalized = replace(cfg, output="")
    return hashlib.sha256(serialize_config(normalized).encode()).hexdigest()


# ---------------------------------------------------------------------------
# state descriptors


@dataclass(frozen=True)
class StateSpec:
    kind: str
    params: tuple


def _parse_complex(token: str, path: str) -> complex:
    try:
        return complex(token)
    except ValueError:
        raise ConfigValueError(path, f"cannot parse amplitude {token!r}") from None


def _parse_angle(token: str, path: str) -> float:
    token = token.strip().lower()
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        try:
            return math.pi / float(token[3:])
        except (ValueError, ZeroDivisionError):
            raise ConfigValueError(path, f"cannot parse angle {token!r}") from None
    try:
        return float(token)
    except ValueError:
        raise ConfigValueError(path, f"cannot parse angle {token!r}") from None


def parse_descriptor(text: str) -> StateSpec:
    """fock:n | coherent:alpha | cat:alpha:phi:sign."""
    parts = [p for p in str(text).split(":")]
    kind = parts[0].strip().lower()
    path = "state"
    if kind == "fock" and len(parts) == 2:
        try:
            n = int(parts[1])
        except ValueError:
            raise ConfigValueError(path, f"bad fock occupation {parts[1]!r}") from None
        if n < 0:
            raise ConfigValueError(path, "fock occupation must be >= 0")
        return StateSpec("fock", (n,))
    if kind == "coherent" and len(parts) == 2:
        return StateSpec("coherent", (_parse_complex(parts[1], path),))
    if kind == "cat" and len(parts) == 4:
        alpha = _parse_complex(parts[1], path)
        phi = _parse_angle(parts[2], path)
        sign_token = parts[3].strip().lower()
        if sign_token in ("plus", "+"):
            sign = +1
        elif sign_token in ("minus", "-"):
            sign = -1
        else:
            raise ConfigValueError(path, f"cat sign must be plus or minus, got {parts[3]!r}")
        return StateSpec("cat", (alpha, phi, sign))
    raise ConfigValueError(path, f"unrecognized state descriptor {text!r}")


def build_radial_state(spec: StateSpec, dim: FockDim) -> StateVector:
    """Construct the radial-mode state named by a descriptor; a state that
    the truncated mode cannot hold (an occupation past its physical levels,
    an amplitude whose series vanishes or overflows there) is a
    ConfigValueError at path `state`."""
    builders = {"fock": fock_state, "coherent": coherent_state, "cat": cat_state}
    if spec.kind not in builders:
        raise ConfigValueError("state", f"{spec.kind} is not a single-mode radial state")
    try:
        return builders[spec.kind](dim, *spec.params)
    except ValueError as e:
        raise ConfigValueError("state", f"cannot build the {spec.kind} state: {e}") from None
