"""Run configuration: a small sectioned key = value file format.

Sections in square brackets, lowercase-hyphen keys, `#` comments, blank
lines ignored.  Unknown sections or keys are rejected with the offending
line number, as are malformed values.  `emit` writes the canonical form
(fixed section and key order, full-precision floats); parsing the emission
reproduces the configuration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import Frame
from .evolution import METHODS
from .green import MAX_BORN_ORDER
from .grid import BOUNDARIES, SpatialGrid1D, GridFunction, discrete_delta
from .reduction import (
    HamiltonianFactory,
    Potentials,
    dirac_hamiltonian,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_hamiltonian,
    maxwell_hamiltonian,
    schrodinger_hamiltonian,
)

MODEL_KINDS = ("dirac", "kg-canonical", "kg-nonrel", "kg-5d", "maxwell", "schrodinger")
POTENTIAL_PROFILES = ("constant", "cosine", "gaussian", "harmonic", "samples")
INITIAL_PROFILES = ("gaussian", "plane-wave", "delta", "random", "samples")
BOUNDARY_KINDS = BOUNDARIES
EVOLUTION_METHODS = METHODS
FRAME_PROFILES = ("identity", "constant", "phase")
OBSERVABLE_NAMES = ("charge", "position")
# Models whose operators divide by the mass.
POSITIVE_MASS_KINDS = ("kg-5d", "kg-nonrel", "schrodinger")

MODEL_DIMENSIONS = {
    "dirac": 4,
    "kg-canonical": 2,
    "kg-nonrel": 2,
    "kg-5d": 5,
    "maxwell": 4,
    "schrodinger": 1,
}


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@dataclass
class ModelSection:
    kind: str = "dirac"
    mass: float = 1.0
    charge: float = 0.0
    hbar: float = 1.0
    light_speed: float = 1.0


@dataclass
class GridSection:
    points: int = 64
    length: float = 2.0 * np.pi
    boundary: str = "periodic"


@dataclass
class PotentialSection:
    scalar_profile: str = "constant"
    scalar_amplitude: float = 0.0
    scalar_width: float = 0.5
    scalar_samples: str = ""
    vector_profile: str = "constant"
    vector_amplitude: float = 0.0
    vector_width: float = 0.5
    vector_samples: str = ""


@dataclass
class EvolutionSection:
    time_step: float = 0.001
    steps: int = 100
    method: str = "crank-nicolson"
    start_time: float = 0.0


@dataclass
class InitialSection:
    profile: str = "gaussian"
    width: float = 0.5
    center: float = 0.5
    wavenumber_index: int = 1
    component: int = 0
    samples: str = ""


@dataclass
class FrameSection:
    """Per-point gauge frame applied before evolving: identity, a constant
    rotation by `angle` in the leading component pair, or the diagonal phase
    field exp(i * amplitude * cos(2 pi x / L))."""

    profile: str = "identity"
    angle: float = 0.0
    amplitude: float = 0.0


@dataclass
class GreenSection:
    source_time: float = 0.0
    target_time: float = 0.5
    born_order: int = 1
    quadrature_points: int = 33
    perturbation_scale: float = 0.1


@dataclass
class OutputSection:
    """Artifact control: `snapshot-every` > 0 writes every k-th state to
    snapshots.csv, `directory` is the artifact directory when --out is not
    given, `observables` lists extra report columns (comma separated;
    `none` suppresses the model's default columns)."""

    snapshot_every: int = 0
    directory: str = ""
    observables: str = ""


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    grid: GridSection = field(default_factory=GridSection)
    potential: PotentialSection = field(default_factory=PotentialSection)
    evolution: EvolutionSection = field(default_factory=EvolutionSection)
    initial: InitialSection = field(default_factory=InitialSection)
    frame: FrameSection = field(default_factory=FrameSection)
    green: GreenSection = field(default_factory=GreenSection)
    output: OutputSection = field(default_factory=OutputSection)


# Section name (also the RunConfig attribute) -> section dataclass.  Keys are
# the dataclass field names with underscores swapped for hyphens.
_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}

_CHOICES = {
    ("model", "kind"): MODEL_KINDS,
    ("grid", "boundary"): BOUNDARY_KINDS,
    ("potential", "scalar-profile"): POTENTIAL_PROFILES,
    ("potential", "vector-profile"): POTENTIAL_PROFILES,
    ("evolution", "method"): EVOLUTION_METHODS,
    ("initial", "profile"): INITIAL_PROFILES,
    ("frame", "profile"): FRAME_PROFILES,
}


def _key_of(field_name: str) -> str:
    return field_name.replace("_", "-")


def _field_map(section_cls) -> dict:
    return {_key_of(f.name): f for f in fields(section_cls)}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raise ConfigError with the line number on
    unknown sections/keys or bad values, non-finite numbers included."""
    cfg = RunConfig()
    section_name = None
    section_obj = None
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section_name}], "
                    f"expected one of {sorted(_SECTIONS)}"
                )
            section_obj = getattr(cfg, section_name)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section_obj is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        fmap = _field_map(type(section_obj))
        if key not in fmap:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in section [{section_name}], "
                f"expected one of {sorted(fmap)}"
            )
        if (section_name, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section_name}]")
        seen.add((section_name, key))
        fobj = fmap[key]
        try:
            if fobj.type in ("int", int):
                parsed = int(value)
            elif fobj.type in ("float", float):
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot read {value!r} as {fobj.type} for key {key!r}"
            ) from None
        if isinstance(parsed, float) and not np.isfinite(parsed):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
        choices = _CHOICES.get((section_name, key))
        if choices is not None and parsed not in choices:
            raise ConfigError(
                f"line {lineno}: {key} must be one of {choices}, got {parsed!r}"
            )
        setattr(section_obj, fobj.name, parsed)
    _validate(cfg)
    return cfg


def _parse_samples(text: str, key: str, npoints: int, converter=float) -> np.ndarray:
    items = [item.strip() for item in text.split(",")] if text.strip() else []
    try:
        values = [converter(item) for item in items]
    except ValueError:
        raise ConfigError(f"{key} must hold comma-separated numbers, got {text!r}") from None
    if len(values) != npoints:
        raise ConfigError(f"{key} must hold {npoints} values (one per grid point), got {len(values)}")
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key} must hold finite numbers, got {text!r}")
    return values


def _validate_samples_slot(profile: str, samples: str, key: str, npoints: int, converter=float) -> None:
    if profile == "samples":
        _parse_samples(samples, key, npoints, converter)
    elif samples.strip():
        raise ConfigError(f"{key} is set but the profile is {profile!r}, not 'samples'")


def resolved_observables(cfg: RunConfig) -> list[str]:
    """Extra report columns: the explicit list, or the model's default
    (`charge` for the canonical two-component scalar model in the reference
    frame, nothing otherwise)."""
    text = cfg.output.observables.strip()
    if not text:
        if cfg.model.kind == "kg-canonical" and cfg.frame.profile == "identity":
            return ["charge"]
        return []
    if text == "none":
        return []
    return [item.strip() for item in text.split(",")]


def _validate(cfg: RunConfig) -> None:
    n = cfg.grid.points
    if n < 2:
        raise ConfigError(f"grid points must be >= 2, got {n}")
    if cfg.grid.boundary == "periodic" and n & (n - 1):
        raise ConfigError(
            f"periodic grids differentiate spectrally: points must be a power of two, got {n}"
        )
    if cfg.grid.length <= 0:
        raise ConfigError(f"grid length must be positive, got {cfg.grid.length}")
    if cfg.evolution.steps < 1:
        raise ConfigError(f"evolution steps must be >= 1, got {cfg.evolution.steps}")
    green = cfg.green
    if cfg.model.hbar <= 0:
        raise ConfigError(f"hbar must be positive, got {cfg.model.hbar}")
    if cfg.model.light_speed <= 0:
        raise ConfigError(f"light-speed must be positive, got {cfg.model.light_speed}")
    if cfg.model.kind in POSITIVE_MASS_KINDS and cfg.model.mass <= 0:
        raise ConfigError(
            f"the {cfg.model.kind} model needs a positive mass, got {cfg.model.mass}"
        )
    if cfg.evolution.time_step <= 0:
        raise ConfigError(f"evolution time-step must be positive, got {cfg.evolution.time_step}")
    dim = MODEL_DIMENSIONS[cfg.model.kind]
    if not 0 <= cfg.initial.component < dim:
        raise ConfigError(
            f"initial component {cfg.initial.component} outside the "
            f"{dim}-component model {cfg.model.kind!r}"
        )
    pot = cfg.potential
    _validate_samples_slot(pot.scalar_profile, pot.scalar_samples, "scalar-samples", n)
    _validate_samples_slot(pot.vector_profile, pot.vector_samples, "vector-samples", n)
    for profile, width, key in (
        (pot.scalar_profile, pot.scalar_width, "scalar-width"),
        (pot.vector_profile, pot.vector_width, "vector-width"),
    ):
        if profile in ("gaussian", "harmonic") and width <= 0:
            raise ConfigError(f"{key} must be positive for the {profile!r} profile, got {width}")
    init = cfg.initial
    _validate_samples_slot(init.profile, init.samples, "samples", n, complex)
    if init.profile == "gaussian" and init.width <= 0:
        raise ConfigError(f"initial width must be positive, got {init.width}")
    if not 0 <= green.born_order <= MAX_BORN_ORDER:
        raise ConfigError(
            f"green born-order must lie in 0..{MAX_BORN_ORDER}, got {green.born_order}"
        )
    if green.quadrature_points < 3:
        raise ConfigError(
            f"green quadrature-points must be >= 3, got {green.quadrature_points}"
        )
    if green.target_time <= green.source_time:
        raise ConfigError(
            f"green target-time {green.target_time} must exceed source-time {green.source_time}"
        )
    if cfg.output.snapshot_every < 0:
        raise ConfigError(f"snapshot-every must be >= 0, got {cfg.output.snapshot_every}")
    for name in resolved_observables(cfg):
        if name not in OBSERVABLE_NAMES:
            raise ConfigError(
                f"unknown observable {name!r}: choose from {', '.join(OBSERVABLE_NAMES)} "
                "(the norm column is always present)"
            )
        if name == "charge":
            if cfg.model.kind != "kg-canonical":
                raise ConfigError(
                    "the charge column needs the canonical two-component scalar model"
                )
            if cfg.frame.profile != "identity":
                raise ConfigError(
                    "the charge column is defined in the reference frame; "
                    "drop the [frame] section"
                )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_config(handle.read())
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text: fixed section and key order, full-precision floats."""
    lines = []
    for section_name, section_cls in _SECTIONS.items():
        lines.append(f"[{section_name}]")
        section_obj = getattr(cfg, section_name)
        for fobj in fields(section_cls):
            lines.append(f"{_key_of(fobj.name)} = {_format_value(getattr(section_obj, fobj.name))}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders


def build_grid(cfg: RunConfig) -> SpatialGrid1D:
    return SpatialGrid1D(cfg.grid.points, cfg.grid.length, cfg.grid.boundary)


def _profile_values(
    profile: str, amplitude: float, width: float, samples: str, key: str, grid: SpatialGrid1D
) -> object:
    if profile == "samples":
        return _parse_samples(samples, key, grid.npoints)
    if amplitude == 0.0:
        return 0.0
    if profile == "constant":
        return amplitude
    x = grid.points
    if profile == "cosine":
        return amplitude * np.cos(2.0 * np.pi * x / grid.length)
    if profile == "gaussian":
        return amplitude * np.exp(-((x - grid.length / 2.0) ** 2) / (2.0 * width**2))
    if profile == "harmonic":
        return amplitude * ((x - grid.length / 2.0) / width) ** 2
    raise ConfigError(f"unknown potential profile {profile!r}")


def build_potentials(cfg: RunConfig, grid: SpatialGrid1D) -> Potentials:
    pot = cfg.potential
    return Potentials(
        scalar=_profile_values(
            pot.scalar_profile, pot.scalar_amplitude, pot.scalar_width,
            pot.scalar_samples, "scalar-samples", grid,
        ),
        vector=_profile_values(
            pot.vector_profile, pot.vector_amplitude, pot.vector_width,
            pot.vector_samples, "vector-samples", grid,
        ),
    )


def build_factory(cfg: RunConfig, grid: SpatialGrid1D) -> HamiltonianFactory:
    m = cfg.model
    pots = build_potentials(cfg, grid)
    if m.kind == "dirac":
        return dirac_hamiltonian(m.mass, m.charge, pots, m.hbar, m.light_speed)
    if m.kind == "kg-canonical":
        return kg_canonical_hamiltonian(m.mass, m.charge, pots, m.hbar, m.light_speed)
    if m.kind == "kg-nonrel":
        return kg_nonrel_hamiltonian(m.mass, m.charge, pots, m.hbar, m.light_speed)
    if m.kind == "kg-5d":
        if not pots.is_zero():
            raise ConfigError("the kg-5d model is free: drop the [potential] section")
        return kg_5d_hamiltonian(m.mass, m.hbar, m.light_speed)
    if m.kind == "maxwell":
        if not pots.is_zero():
            raise ConfigError("the maxwell model is source-free: drop the [potential] section")
        return maxwell_hamiltonian(m.hbar, m.light_speed)
    if m.kind == "schrodinger":
        return schrodinger_hamiltonian(m.mass, pots.scalar, m.hbar)
    raise ConfigError(f"unknown model kind {m.kind!r}")


def build_initial_state(cfg: RunConfig, grid: SpatialGrid1D, seed: int = 0) -> GridFunction:
    dim = MODEL_DIMENSIONS[cfg.model.kind]
    init = cfg.initial
    values = np.zeros((dim, grid.npoints), dtype=complex)
    x = grid.points
    x0 = init.center * grid.length
    k = 2.0 * np.pi * init.wavenumber_index / grid.length
    if init.profile == "gaussian":
        values[init.component] = np.exp(
            -((x - x0) ** 2) / (2.0 * init.width**2)
        ) * np.exp(1j * k * x)
    elif init.profile == "plane-wave":
        values[init.component] = np.exp(1j * k * x)
    elif init.profile == "delta":
        values[init.component] = discrete_delta(grid, x0).values[0]
    elif init.profile == "random":
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((dim, grid.npoints)) + 1j * rng.standard_normal(
            (dim, grid.npoints)
        )
    elif init.profile == "samples":
        values[init.component] = _parse_samples(init.samples, "samples", grid.npoints, complex)
    else:
        raise ConfigError(f"unknown initial profile {init.profile!r}")
    # Scaling the real and imaginary parts by the power of two of the largest
    # one keeps the norm from overflowing or underflowing for any finite,
    # non-zero samples; being exact, it changes no digit of the result.
    parts = values.view(float)
    peak = np.max(np.abs(parts))
    if peak == 0:
        raise ConfigError("initial state came out identically zero")
    state = GridFunction(grid, np.ldexp(parts, -np.frexp(peak)[1]).view(complex))
    return state * (1.0 / state.norm())


def build_frame(cfg: RunConfig, grid: SpatialGrid1D) -> Frame | None:
    """The [frame] section as a field of one matrix per grid point, or None
    when the configuration is the identity frame."""
    frame = cfg.frame
    dim = MODEL_DIMENSIONS[cfg.model.kind]
    if frame.profile == "identity":
        return None
    if frame.profile == "constant":
        if frame.angle == 0.0:
            return None
        if dim == 1:
            matrix = np.array([[np.exp(1j * frame.angle)]])
        else:
            matrix = np.eye(dim, dtype=complex)
            cos_a, sin_a = np.cos(frame.angle), np.sin(frame.angle)
            matrix[0, 0] = matrix[1, 1] = cos_a
            matrix[0, 1], matrix[1, 0] = -sin_a, sin_a
        return Frame(np.broadcast_to(matrix, (grid.npoints,) + matrix.shape).copy())
    if frame.profile == "phase":
        if frame.amplitude == 0.0:
            return None
        angles = frame.amplitude * np.cos(2.0 * np.pi * grid.points / grid.length)
        return Frame(np.exp(1j * angles)[:, None, None] * np.eye(dim))
    raise ConfigError(f"unknown frame profile {frame.profile!r}")
