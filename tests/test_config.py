"""Parsing, canonical emission, and builders for run configurations."""

import warnings

import numpy as np
import pytest

from bundlewave.config import (
    MODEL_DIMENSIONS,
    MODEL_KINDS,
    ConfigError,
    RunConfig,
    build_factory,
    build_frame,
    build_grid,
    build_initial_state,
    build_potentials,
    emit_config,
    load_config,
    parse_config,
    resolved_observables,
)
from bundlewave.green import MAX_BORN_ORDER


def test_defaults_round_trip_through_emission():
    cfg = RunConfig()
    assert parse_config(emit_config(cfg)) == cfg


def test_modified_config_round_trips_exactly():
    cfg = parse_config(
        """
        [model]
        kind = kg-canonical
        mass = 1.2345678901234567
        hbar = 0.5

        [grid]
        points = 48
        length = 12.0
        boundary = reflecting

        [evolution]
        method = midpoint-exponential
        time-step = 0.0025

        [frame]
        profile = phase
        amplitude = 0.25

        [output]
        snapshot-every = 5
        observables = none
        """
    )
    assert cfg.model.kind == "kg-canonical"
    assert cfg.grid.points == 48
    assert cfg.evolution.method == "midpoint-exponential"
    assert cfg.frame.profile == "phase"
    assert cfg.output.snapshot_every == 5
    assert parse_config(emit_config(cfg)) == cfg


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config(
        """
        # leading comment
        [grid]

        points = 32  # trailing comment
        """
    )
    assert cfg.grid.points == 32


def test_unknown_section_reports_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown section"):
        parse_config("\n[lattice]\npoints = 8\n")


def test_unknown_key_reports_line_and_section():
    with pytest.raises(ConfigError, match="line 2: unknown key 'spacing'"):
        parse_config("[grid]\nspacing = 0.1\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'points'"):
        parse_config("[grid]\npoints = 8\npoints = 16\n")


def test_bad_value_type_is_rejected():
    with pytest.raises(ConfigError, match="line 2: cannot read 'many'"):
        parse_config("[grid]\npoints = many\n")


def test_bad_choice_is_rejected():
    with pytest.raises(ConfigError, match="kind must be one of"):
        parse_config("[model]\nkind = proca\n")
    # A configuration built in code skips the parser; the builders refuse
    # an unknown choice themselves.
    grid = build_grid(RunConfig())
    for section, values, build in [
        ("potential", {"scalar_profile": "proca", "scalar_amplitude": 1.0}, build_potentials),
        ("model", {"kind": "proca"}, build_factory),
        ("initial", {"profile": "proca"}, build_initial_state),
        ("frame", {"profile": "proca"}, build_frame),
    ]:
        cfg = RunConfig()
        for name, value in values.items():
            setattr(getattr(cfg, section), name, value)
        with pytest.raises(ConfigError, match="unknown .* 'proca'"):
            build(cfg, grid)


def test_key_outside_section_is_rejected():
    with pytest.raises(ConfigError, match="line 1: key outside"):
        parse_config("points = 8\n")


def test_missing_equals_is_rejected():
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("[grid]\npoints 8\n")


@pytest.mark.parametrize(
    "snippet",
    [
        "[grid]\npoints = 1\n",
        "[grid]\npoints = 24\n",
        "[grid]\nlength = 0\n",
        "[evolution]\nsteps = 0\n",
        "[evolution]\ntime-step = 0\n",
        "[evolution]\ntime-step = -0.01\n",
        "[evolution]\ntime-step = nan\n",
        "[evolution]\ntime-step = inf\n",
        "[evolution]\nstart-time = nan\n",
        "[evolution]\nstart-time = -inf\n",
        "[model]\nkind = schrodinger\n[initial]\ncomponent = 1\n",
        "[initial]\nprofile = gaussian\nwidth = 0\n",
        "[potential]\nscalar-profile = harmonic\nscalar-amplitude = 1.0\nscalar-width = 0\n",
        "[output]\nsnapshot-every = -1\n",
        "[output]\nobservables = entropy\n",
        "[model]\nkind = dirac\n[output]\nobservables = charge\n",
        "[model]\nkind = kg-canonical\n[frame]\nprofile = phase\namplitude = 0.1\n"
        "[output]\nobservables = charge\n",
        "[green]\nborn-order = -1\n",
        f"[green]\nborn-order = {MAX_BORN_ORDER + 1}\n",
        "[green]\nquadrature-points = 2\n",
        "[green]\nperturbation-scale = nan\n",
        "[green]\nperturbation-scale = inf\n",
        "[green]\nsource-time = -inf\n",
        "[green]\ntarget-time = nan\n",
        "[green]\nsource-time = 0.5\ntarget-time = 0.5\n",
        "[green]\nsource-time = 0.6\ntarget-time = 0.5\n",
        "[grid]\npoints = 4\n[initial]\nprofile = samples\nsamples = nan, 1, 1, 1\n",
        "[grid]\npoints = 4\n[initial]\nprofile = samples\nsamples = 1, inf, 1, 1\n",
        "[grid]\npoints = 4\n[initial]\nprofile = samples\nsamples = 1, 1, nanj, 1\n",
        "[grid]\npoints = 4\n[potential]\nscalar-profile = samples\nscalar-samples = 0, nan, 0, 0\n",
        "[grid]\npoints = 4\n[potential]\nscalar-profile = samples\nscalar-samples = 0, 0, 0, -inf\n",
        "[grid]\npoints = 4\n[potential]\nvector-profile = samples\nvector-samples = inf, 0, 0, 0\n",
        "[model]\nhbar = 0\n",
        "[model]\nhbar = -1\n",
        "[model]\nlight-speed = 0\n",
        "[model]\nmass = nan\n",
        "[model]\ncharge = inf\n",
        "[grid]\nlength = inf\n",
        "[potential]\nscalar-amplitude = inf\n",
        "[frame]\nangle = nan\n",
        "[initial]\nwidth = nan\n",
        "[model]\nkind = schrodinger\nmass = 0\n",
        "[model]\nkind = schrodinger\nmass = -1\n",
        "[model]\nkind = kg-nonrel\nmass = 0\n",
        "[model]\nkind = kg-nonrel\nmass = -0.5\n",
        "[model]\nkind = kg-5d\nmass = 0\n",
        "[model]\nkind = kg-5d\nmass = -2\n",
    ],
)
def test_semantic_validation(snippet):
    with pytest.raises(ConfigError):
        parse_config(snippet)


def test_green_limits_are_accepted():
    for order in (0, MAX_BORN_ORDER):
        assert parse_config(f"[green]\nborn-order = {order}\n").green.born_order == order
    cfg = parse_config("[green]\nquadrature-points = 3\nsource-time = -1\ntarget-time = -0.5\n")
    assert (cfg.green.quadrature_points, cfg.green.source_time) == (3, -1.0)


def test_reflecting_grids_may_use_any_point_count():
    cfg = parse_config("[grid]\npoints = 24\nboundary = reflecting\n")
    assert cfg.grid.points == 24


def test_load_config_prefixes_path(tmp_path):
    good = tmp_path / "run.cfg"
    good.write_text("[grid]\npoints = 8\n", encoding="utf-8")
    assert load_config(str(good)).grid.points == 8
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\npoints = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.cfg: line 2"):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# Builders


def test_build_grid_and_potentials():
    cfg = parse_config(
        """
        [grid]
        points = 32
        length = 4.0
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.3
        """
    )
    grid = build_grid(cfg)
    assert grid.npoints == 32 and abs(grid.length - 4.0) < 1e-15
    pots = build_potentials(cfg, grid)
    expected = 0.3 * np.cos(2.0 * np.pi * grid.points / 4.0)
    assert np.allclose(pots.scalar, expected)
    assert pots.vector == 0.0


def test_zero_amplitude_collapses_to_scalar_zero():
    cfg = parse_config("[potential]\nscalar-profile = gaussian\n")
    assert build_potentials(cfg, build_grid(cfg)).scalar == 0.0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_build_factory_dimensions(kind):
    cfg = parse_config(f"[model]\nkind = {kind}\n[grid]\npoints = 8\n")
    factory = build_factory(cfg, build_grid(cfg))
    assert factory.dimension == MODEL_DIMENSIONS[kind]


@pytest.mark.parametrize("kind", ["kg-5d", "maxwell"])
def test_free_models_reject_potentials(kind):
    cfg = parse_config(f"[model]\nkind = {kind}\n[potential]\nscalar-amplitude = 1.0\n")
    with pytest.raises(ConfigError, match="drop the"):
        build_factory(cfg, build_grid(cfg))


def test_initial_states_are_normalised_and_placed():
    cfg = parse_config(
        """
        [model]
        kind = dirac
        [grid]
        points = 32
        [initial]
        profile = plane-wave
        wavenumber-index = 3
        component = 2
        """
    )
    grid = build_grid(cfg)
    state = build_initial_state(cfg, grid)
    assert abs(state.norm() - 1.0) < 1e-12
    occupied = np.max(np.abs(state.values), axis=1)
    assert occupied[2] > 0 and occupied[0] == occupied[1] == occupied[3] == 0
    k = 2.0 * np.pi * 3 / grid.length
    expected = np.exp(1j * k * grid.points)
    expected /= np.sqrt(grid.spacing * np.sum(np.abs(expected) ** 2))
    assert np.max(np.abs(state.values[2] - expected)) < 1e-12


def test_random_initial_state_is_seeded():
    cfg = parse_config("[initial]\nprofile = random\n[grid]\npoints = 16\n")
    grid = build_grid(cfg)
    first = build_initial_state(cfg, grid, seed=5)
    second = build_initial_state(cfg, grid, seed=5)
    other = build_initial_state(cfg, grid, seed=6)
    assert np.array_equal(first.values, second.values)
    assert np.max(np.abs(first.values - other.values)) > 1e-3


def test_delta_initial_state():
    cfg = parse_config("[initial]\nprofile = delta\ncenter = 0.25\n[grid]\npoints = 16\n")
    grid = build_grid(cfg)
    state = build_initial_state(cfg, grid)
    assert np.count_nonzero(state.values) == 1
    assert abs(state.norm() - 1.0) < 1e-12


def test_gaussian_initial_state_carries_configured_momentum():
    cfg = parse_config(
        """
        [grid]
        points = 64
        length = 16.0
        [initial]
        profile = gaussian
        wavenumber-index = 3
        """
    )
    grid = build_grid(cfg)
    boosted = build_initial_state(cfg, grid)
    cfg.initial.wavenumber_index = 0
    still = build_initial_state(cfg, grid)
    k = 2.0 * np.pi * 3 / grid.length
    expected = still.values[0] * np.exp(1j * k * grid.points)
    assert np.max(np.abs(boosted.values[0] - expected)) < 1e-12
    assert np.max(np.abs(boosted.values[0].imag)) > 1e-3


@pytest.mark.parametrize("profile, shape", [
    ("harmonic", lambda u: u**2),
    ("gaussian", lambda u: np.exp(-(u**2) / 2.0)),
])
def test_potential_profiles_with_a_width(profile, shape):
    cfg = parse_config(
        f"""
        [grid]
        points = 16
        length = 4.0
        [potential]
        scalar-profile = {profile}
        scalar-amplitude = 0.5
        scalar-width = 2.0
        """
    )
    grid = build_grid(cfg)
    pots = build_potentials(cfg, grid)
    expected = 0.5 * shape((grid.points - 2.0) / 2.0)
    assert np.max(np.abs(pots.scalar - expected)) < 1e-14


def test_sampled_potential_is_ingested_verbatim():
    values = [0.5 * i - 1.0 for i in range(8)]
    text = ",".join(str(v) for v in values)
    cfg = parse_config(
        f"[grid]\npoints = 8\n[potential]\nscalar-profile = samples\nscalar-samples = {text}\n"
    )
    pots = build_potentials(cfg, build_grid(cfg))
    assert np.array_equal(pots.scalar, np.array(values))
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize(
    "snippet",
    [
        # Wrong count for the grid.
        "[grid]\npoints = 8\n[potential]\nscalar-profile = samples\nscalar-samples = 1,2,3\n",
        # Unreadable entry.
        "[grid]\npoints = 2\n[potential]\nscalar-profile = samples\nscalar-samples = 1,x\n",
        # Samples without the samples profile.
        "[grid]\npoints = 2\n[potential]\nscalar-samples = 1,2\n",
        # Declared profile but nothing supplied.
        "[grid]\npoints = 2\n[initial]\nprofile = samples\n",
    ],
)
def test_bad_sample_lists_are_rejected(snippet):
    with pytest.raises(ConfigError, match="samples"):
        parse_config(snippet)


def test_sampled_initial_state_accepts_complex_entries():
    cfg = parse_config(
        """
        [grid]
        points = 4
        [initial]
        profile = samples
        samples = 1+1j,0,-2j,0.5
        """
    )
    grid = build_grid(cfg)
    state = build_initial_state(cfg, grid)
    expected = np.array([1 + 1j, 0, -2j, 0.5])
    expected = expected / np.sqrt(grid.spacing * np.sum(np.abs(expected) ** 2))
    assert np.max(np.abs(state.values[0] - expected)) < 1e-12


@pytest.mark.parametrize(
    "samples",
    ["1e308, 1e308, 1e308, 1e308", "1e-320, 0, 0, 0", "0, 1e308-1e308j, 1e-300, 0", "5e-324j, 0, 0, 0"],
)
def test_sampled_initial_state_is_normalized_at_any_scale(samples):
    cfg = parse_config(f"[grid]\npoints = 4\n[initial]\nprofile = samples\nsamples = {samples}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = build_initial_state(cfg, build_grid(cfg))
    assert np.all(np.isfinite(state.values))
    assert abs(state.norm() - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Frames and observables


def test_identity_and_collapsed_frames_build_to_none():
    grid = build_grid(RunConfig())
    assert build_frame(RunConfig(), grid) is None
    cfg = parse_config("[frame]\nprofile = phase\namplitude = 0\n")
    assert build_frame(cfg, build_grid(cfg)) is None
    cfg = parse_config("[frame]\nprofile = constant\nangle = 0\n")
    assert build_frame(cfg, build_grid(cfg)) is None


def test_constant_frame_rotates_the_leading_pair():
    cfg = parse_config("[model]\nkind = dirac\n[grid]\npoints = 8\n[frame]\nprofile = constant\nangle = 0.3\n")
    frames = build_frame(cfg, build_grid(cfg)).at()
    assert frames.shape == (8, 4, 4)
    assert np.max(np.abs(frames.conj().swapaxes(1, 2) @ frames - np.eye(4))) <= 1e-12
    top_left = frames[0][:2, :2]
    expected = np.array(
        [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    )
    assert np.max(np.abs(top_left - expected)) < 1e-15
    assert np.array_equal(frames[0][2:, 2:], np.eye(2))


def test_phase_frame_is_diagonal_and_unitary():
    cfg = parse_config("[model]\nkind = kg-canonical\n[frame]\nprofile = phase\namplitude = 0.4\n")
    grid = build_grid(cfg)
    frames = build_frame(cfg, grid).at()
    assert frames.shape == (grid.npoints, 2, 2)
    assert np.max(np.abs(frames.conj().swapaxes(1, 2) @ frames - np.eye(2))) <= 1e-12
    phases = np.exp(1j * 0.4 * np.cos(2.0 * np.pi * grid.points / grid.length))
    assert np.max(np.abs(frames[:, 0, 0] - phases)) < 1e-14
    assert np.max(np.abs(frames[:, 0, 1])) == 0.0


def test_observable_defaults_follow_the_model():
    assert resolved_observables(parse_config("[model]\nkind = kg-canonical\n")) == ["charge"]
    assert resolved_observables(parse_config("[model]\nkind = dirac\n")) == []
    cfg = parse_config("[model]\nkind = kg-canonical\n[output]\nobservables = none\n")
    assert resolved_observables(cfg) == []
    cfg = parse_config("[model]\nkind = kg-canonical\n[output]\nobservables = position,charge\n")
    assert resolved_observables(cfg) == ["position", "charge"]
