"""Exit codes, determinism, and output shapes of the command line."""

import contextlib
import io
import os
import re
import tempfile
import textwrap
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlewave import algebra, evolution
from bundlewave.checks import run_checks
from bundlewave.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    TABLE_NAMES,
    _framed_problem,
    main,
)
from bundlewave.config import (
    BOUNDARY_KINDS,
    EVOLUTION_METHODS,
    FRAME_PROFILES,
    INITIAL_PROFILES,
    MODEL_KINDS,
    POTENTIAL_PROFILES,
    RunConfig,
    build_factory,
    build_frame,
    build_grid,
    build_initial_state,
    load_config,
    resolved_observables,
)
from bundlewave.evolution import _power, evolve, kg_charge
from bundlewave.green import MAX_BORN_ORDER
from bundlewave.grid import GridFunction, inner, stacked_inner


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def _run_cfg(tmp_path, extra=""):
    return _write(
        tmp_path,
        "run.cfg",
        f"""
        [model]
        kind = schrodinger
        [grid]
        points = 16
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.4
        [evolution]
        time-step = 0.01
        steps = 5
        [initial]
        profile = random
        {extra}
        """,
    )


# ---------------------------------------------------------------------------
# run


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = _run_cfg(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(first), "--seed", "3"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(second), "--seed", "3"]) == EXIT_OK
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    lines = (first / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,time,norm,norm-drift"
    assert len(lines) == 7
    assert lines[1].startswith("0,0,")


def test_run_writes_to_stdout_by_default(tmp_path, capsys):
    cfg = _run_cfg(tmp_path)
    assert main(["run", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("step,time,norm,norm-drift\n")
    assert out.endswith("\n")


def test_run_norm_drift_column_is_small(tmp_path, capsys):
    cfg = _run_cfg(tmp_path)
    assert main(["run", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    drifts = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(drifts) < 1e-8


def test_run_seed_changes_random_initial_data(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kg.cfg",
        """
        [model]
        kind = kg-canonical
        [grid]
        points = 16
        [evolution]
        time-step = 0.01
        steps = 3
        [initial]
        profile = random
        """,
    )
    outputs = []
    for seed in ("0", "1"):
        assert main(["run", "--config", cfg, "--seed", seed]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_run_reports_conserved_charge_column(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kg.cfg",
        """
        [model]
        kind = kg-canonical
        [grid]
        points = 16
        [evolution]
        time-step = 0.01
        steps = 20
        [initial]
        profile = random
        """,
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,time,norm,charge,norm-drift"
    charges = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(abs(q - charges[0]) for q in charges) < 1e-8


def test_run_snapshots_written_at_cadence(tmp_path):
    cfg = _run_cfg(tmp_path, extra="[output]\nsnapshot-every = 2\n")
    out = tmp_path / "artifacts"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    lines = (out / "snapshots.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,component,re,im"
    # Steps 0, 2, 4 of a 5-step run on 16 points, one component.
    assert len(lines) == 1 + 3 * 16
    times = {line.split(",")[0] for line in lines[1:]}
    assert len(times) == 3
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_run_snapshots_require_an_artifact_directory(tmp_path, capsys):
    cfg = _run_cfg(tmp_path, extra="[output]\nsnapshot-every = 1\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "directory" in capsys.readouterr().err


def test_run_uses_configured_output_directory(tmp_path):
    out = tmp_path / "from-config"
    cfg = _run_cfg(tmp_path, extra=f"[output]\ndirectory = {out}\n")
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert (out / "report.csv").exists()


def test_run_position_observable_tracks_packet_center(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "pos.cfg",
        """
        [model]
        kind = schrodinger
        [grid]
        points = 64
        length = 12.0
        [evolution]
        time-step = 0.001
        steps = 2
        [initial]
        profile = gaussian
        center = 0.25
        wavenumber-index = 0
        [output]
        observables = position
        """,
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,time,norm,position,norm-drift"
    first_position = float(lines[1].split(",")[3])
    assert abs(first_position - 3.0) < 1e-6


def test_run_in_phase_frame_keeps_unit_norm(tmp_path, capsys):
    cfg = _run_cfg(tmp_path, extra="[frame]\nprofile = phase\namplitude = 0.7\n")
    assert main(["run", "--config", cfg, "--seed", "3"]) == EXIT_OK
    framed = capsys.readouterr().out.splitlines()
    plain_cfg = _run_cfg(tmp_path)
    assert main(["run", "--config", plain_cfg, "--seed", "3"]) == EXIT_OK
    plain = capsys.readouterr().out.splitlines()
    assert framed[0] == plain[0] == "step,time,norm,norm-drift"
    for framed_line, plain_line in zip(framed[1:], plain[1:]):
        framed_norm = float(framed_line.split(",")[2])
        plain_norm = float(plain_line.split(",")[2])
        assert abs(framed_norm - plain_norm) < 1e-10


def test_framed_step_zero_norm_is_summed_like_the_marched_rows(tmp_path, capsys):
    # The framed state is handed over C-ordered, as `march` yields every
    # later state, so the step-0 norm is summed in the same order.  In
    # Fortran order this case reads norm^2 1.0000000000000002 instead of
    # 0.9999999999999999.
    cfg = _write(tmp_path, "framed.cfg", """
        [model]
        kind = dirac
        [grid]
        points = 32
        [evolution]
        time-step = 0.01
        steps = 2
        [initial]
        profile = random
        [frame]
        profile = phase
        amplitude = 0.7
        """)
    loaded = load_config(cfg)
    grid = build_grid(loaded)
    initial = build_initial_state(loaded, grid, seed=2)
    _, state, product = _framed_problem(loaded, grid, build_factory(loaded, grid), initial)
    assert state.values.flags.c_contiguous
    rows = np.ascontiguousarray(state.values)[np.newaxis]
    norm = np.sqrt(stacked_inner(grid, rows, rows, product).real[0])
    assert main(["run", "--config", cfg, "--seed", "2"]) == EXIT_OK
    step0 = capsys.readouterr().out.splitlines()[1].split(",")
    assert step0[2] == format(float(norm), ".17g") == "0.99999999999999989"


@pytest.mark.parametrize("frame", ["profile = phase\namplitude = 0.7",
                                   "profile = constant\nangle = 0.4"])
def test_a_framed_run_inverts_its_frame_once(tmp_path, monkeypatch, frame):
    # The state f^{-1} psi and the operator f^{-1} H f share one inverse.
    inverses = []

    def counted(matrix):
        inverses.append(matrix.shape)
        return inverse(matrix)

    inverse = algebra._frame_inverse
    monkeypatch.setattr(algebra, "_frame_inverse", counted)
    cfg = _write(tmp_path, "framed.cfg", "[model]\nkind = dirac\n[grid]\npoints = 16\n"
                 "[evolution]\ntime-step = 0.01\nsteps = 3\n[initial]\nprofile = random\n"
                 f"[frame]\n{frame}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert inverses == [(16, 4, 4)]


@pytest.mark.parametrize("kind", ["dirac", "schrodinger"])
def test_run_in_constant_frame_keeps_unit_norm(tmp_path, capsys, kind):
    cfg = _write(
        tmp_path,
        "rot.cfg",
        f"""
        [model]
        kind = {kind}
        [grid]
        points = 16
        [evolution]
        time-step = 0.01
        steps = 3
        [initial]
        profile = random
        [frame]
        profile = constant
        angle = 0.4
        """,
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    norms = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(abs(n - 1.0) for n in norms) < 1e-10
    if kind == "schrodinger":
        # One component: the constant frame is the phase e^{i angle}.
        loaded = load_config(cfg)
        frame = build_frame(loaded, build_grid(loaded))
        assert np.array_equal(frame.at(), np.full((16, 1, 1), np.exp(0.4j)))


def test_dirac_in_a_mixing_frame_matches_the_identity_frame(tmp_path, capsys):
    # The rotation mixes components 0 and 1, so the framed H has one
    # component group where the identity frame has two.
    base = """
        [model]
        kind = dirac
        charge = 1
        [grid]
        points = 16
        length = 8
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.3
        [evolution]
        time-step = 0.01
        steps = 20
        [initial]
        profile = random
        [output]
        observables = position
        """
    tables = []
    for frame in ("", "[frame]\nprofile = constant\nangle = 0.4\n"):
        cfg = _write(tmp_path, "mix.cfg", textwrap.dedent(base) + frame)
        assert main(["run", "--config", cfg, "--seed", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        tables.append([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    framed, plain = tables
    assert len(framed) == len(plain) == 21
    for framed_row, plain_row in zip(framed, plain):
        # norm and position columns
        assert abs(framed_row[2] - plain_row[2]) < 1e-10
        assert abs(framed_row[3] - plain_row[3]) < 1e-10


_POWER_ROUTE_CONFIGS = {
    # Groups {0, 3} and {1, 2} with |S| N = 16 take the power route after
    # 8 + 3 * 16 = 56 steps, so 64 steps give seven full blocks of U_S^8.
    # The two groups are twins and share one power.
    "dirac-phase": """
        [model]
        kind = dirac
        [grid]
        points = 8
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.3
        [evolution]
        time-step = 0.01
        steps = 64
        [initial]
        profile = random
        [frame]
        profile = phase
        amplitude = 0.7
        [output]
        observables = position
        """,
    "kg-canonical": """
        [model]
        kind = kg-canonical
        [grid]
        points = 8
        [evolution]
        time-step = 0.01
        steps = 64
        [initial]
        profile = random
        [output]
        observables = charge, position
        """,
}


def _per_state_report(cfg_path, seed):
    """report.csv of `run`, built one state at a time from `evolve`'s
    callback and `inner`."""
    cfg = load_config(cfg_path)
    grid = build_grid(cfg)
    state = build_initial_state(cfg, grid, seed=seed)
    factory, state, product = _framed_problem(cfg, grid, build_factory(cfg, grid), state)
    names = resolved_observables(cfg)
    measures = {
        "charge": kg_charge,
        "position": lambda s: inner(s, GridFunction(grid, grid.points * s.values), product).real,
    }
    lines = [",".join(["step", "time", "norm"] + names + ["norm-drift"])]

    def record(t, s):
        norm = s.norm(product)
        cells = [t, norm] + [measures[name](s) for name in names] + [abs(norm - 1.0)]
        lines.append(",".join([str(len(lines) - 1)] + [format(float(c), ".17g") for c in cells]))

    ev = cfg.evolution
    record(ev.start_time, state)
    evolve(state, factory, dt=ev.time_step, steps=ev.steps, t0=ev.start_time,
           method=ev.method, callback=record)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", sorted(_POWER_ROUTE_CONFIGS))
def test_run_report_on_the_power_route_matches_per_state_measurement(tmp_path, monkeypatch, name):
    cfg = _write(tmp_path, f"{name}.cfg", _POWER_ROUTE_CONFIGS[name])
    powers = []

    def counted(unit, spare):
        powers.append(unit.shape)
        return _power(unit, spare)

    monkeypatch.setattr(evolution, "_power", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "5"]) == EXIT_OK
    assert powers == [(16, 16)]
    assert (out / "report.csv").read_bytes() == _per_state_report(cfg, 5)


# ---------------------------------------------------------------------------
# check


def test_check_suite_passes(capsys):
    assert main(["check"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,status,value,tolerance"
    assert len(lines) > 1
    assert all(",ok," in line for line in lines[1:])


def test_check_fails_under_crushed_tolerances(capsys):
    assert main(["check", "--tolerance-scale", "1e-30"]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    assert any(",fail," in line for line in lines[1:])


def test_check_runs_a_single_named_suite(capsys):
    assert main(["check", "algebra"]) == EXIT_OK
    names = {line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]}
    assert "clifford-anticommutator" in names
    assert "transport-identity" not in names


@pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
def test_check_rejects_a_tolerance_scale_that_is_not_finite_and_positive(capsys, scale):
    assert main(["check", "--tolerance-scale", scale]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --tolerance-scale")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command, flag", [
    ("run", "--tolerance-scale"),
    ("green", "--tolerance-scale"),
    ("reduce", "--tolerance-scale"),
    ("check", "--config"),
])
def test_a_flag_that_selects_nothing_is_refused(tmp_path, capsys, command, flag):
    argv = [command] if command == "check" else [command, "--config", _run_cfg(tmp_path)]
    with pytest.raises(SystemExit) as stopped:
        main(argv + [flag, "2"])
    assert stopped.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_check_rejects_unknown_suite(capsys):
    assert main(["check", "spectra"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown check suite" in err
    assert "bundle" in err
    # The library call, past the command line's own test.
    with pytest.raises(KeyError, match="spectra"):
        run_checks("spectra")


# ---------------------------------------------------------------------------
# green


def test_green_first_order_reports_duality_and_born(tmp_path, capsys):
    cfg = _run_cfg(tmp_path, extra="[green]\nborn-order = 1\nquadrature-points = 33\n")
    assert main(["green", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["duality-defect"]) < 1e-8
    assert float(table["kernel-completeness"]) < 1e-10
    assert "born-defect-order-1" in table


@pytest.mark.parametrize(
    "green", ["born-order = 7", "perturbation-scale = nan", "target-time = -1"]
)
def test_green_rejects_bad_green_section_before_any_work(tmp_path, capsys, green):
    cfg = _run_cfg(tmp_path, extra=f"[green]\n{green}\n")
    out = tmp_path / "out"
    assert main(["green", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "green.csv").exists()


def test_green_scalar_field_duality(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kg.cfg",
        """
        [model]
        kind = kg-canonical
        charge = 0.5
        [grid]
        points = 16
        [potential]
        scalar-amplitude = 0.7
        [evolution]
        steps = 50
        [initial]
        profile = random
        """,
    )
    assert main(["green", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,value"
    assert float(dict(l.split(",", 1) for l in lines[1:])["duality-defect"]) < 1e-12


def test_green_rejects_nonconstant_scalar_potential(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kg.cfg",
        """
        [model]
        kind = kg-canonical
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.3
        """,
    )
    assert main(["green", "--config", cfg]) == EXIT_CONFIG


def test_green_refuses_a_framed_configuration(tmp_path, capsys):
    cfg = _run_cfg(tmp_path, extra="[frame]\nprofile = phase\namplitude = 0.7\n")
    out = tmp_path / "out"
    assert main(["green", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "reference frame" in capsys.readouterr().err
    assert not (out / "green.csv").exists()


def test_green_rejects_unsupported_models(tmp_path):
    cfg = _write(tmp_path, "mx.cfg", "[model]\nkind = maxwell\n")
    assert main(["green", "--config", cfg]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# reduce


def test_reduce_prints_operator_structure(tmp_path, capsys):
    cfg = _write(tmp_path, "dirac.cfg", "[model]\nkind = dirac\n[grid]\npoints = 8\n")
    assert main(["reduce", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row,col,operator"
    assert len(lines) >= 9
    assert any("d/dx" in line for line in lines[1:])
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_reduce_in_a_frame_prints_the_conjugated_operator(tmp_path, capsys):
    from bundlewave.algebra import matrix_in_frame
    from bundlewave.config import build_factory, build_frame, build_grid, load_config

    cfg = _write(
        tmp_path,
        "dirac.cfg",
        """
        [model]
        kind = dirac
        [grid]
        points = 8
        [evolution]
        start-time = 0.3
        [frame]
        profile = phase
        amplitude = 0.7
        """,
    )
    assert main(["reduce", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    config = load_config(cfg)
    grid = build_grid(config)
    framed = matrix_in_frame(build_factory(config, grid).at(), build_frame(config, grid).at())
    assert lines == ["row,col,operator"] + [f"{i},{j},{text}" for i, j, text in framed.describe()]
    # The frame shows in the table: the reference-frame rows differ.
    plain = _write(tmp_path, "plain.cfg", "[model]\nkind = dirac\n[grid]\npoints = 8\n")
    assert main(["reduce", "--config", plain]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() != lines


# ---------------------------------------------------------------------------
# README examples run as written


def test_readme_library_tour_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    assert abs(scope["final"].norm() - 1.0) < 1e-12
    assert 1.4e-6 <= (scope["dual"] - scope["final"]).norm() <= 1.6e-6


@pytest.mark.parametrize("command", ["run", "green", "reduce"])
def test_readme_configuration_runs_as_written(tmp_path, command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(blocks[0], encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, *rows = (out / TABLE_NAMES[command]).read_text(encoding="utf-8").splitlines()
    assert header and rows and all(rows)


# ---------------------------------------------------------------------------
# failure modes


@pytest.mark.parametrize("command", ["run", "check", "green", "reduce"])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, command):
    argv = [command] if command == "check" else [command, "--config", _run_cfg(tmp_path)]
    assert main(argv + ["--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --seed")
    assert len(captured.err.splitlines()) == 1


def test_missing_config_file_is_a_configuration_error(capsys):
    assert main(["run", "--config", "/nonexistent/nowhere.cfg"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_malformed_config_is_a_configuration_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "[grid]\npoints = many\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["0", "-1"])
@pytest.mark.parametrize("kind", ["schrodinger", "kg-nonrel", "kg-5d"])
def test_nonpositive_mass_is_a_configuration_error(tmp_path, capsys, kind, mass):
    cfg = _write(tmp_path, "mass.cfg", f"[model]\nkind = {kind}\nmass = {mass}\n[grid]\npoints = 8\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "positive mass" in err
    assert len(err.splitlines()) == 1
    assert not (out / "report.csv").exists()


def test_oversize_request_is_a_numerical_failure(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "big.cfg",
        """
        [model]
        kind = dirac
        [grid]
        points = 2048
        [evolution]
        steps = 1
        """,
    )
    assert main(["run", "--config", cfg]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("kind", ["schrodinger", "dirac"])
def test_overflowing_time_step_is_a_one_line_numerical_failure(tmp_path, capsys, kind, method):
    cfg = _write(
        tmp_path,
        "huge.cfg",
        f"""
        [model]
        kind = {kind}
        [grid]
        points = 16
        [potential]
        scalar-profile = cosine
        scalar-amplitude = 0.4
        [evolution]
        time-step = 1e308
        steps = 3
        method = {method}
        """,
    )
    # Any numpy RuntimeWarning raised on the way becomes an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "section, expected",
    [
        ("[initial]\nprofile = samples\nsamples = 1e308, 1e308, 1e308, 1e308", EXIT_OK),
        ("[initial]\nprofile = samples\nsamples = 1e-320, 0, 0, 0", EXIT_OK),
        ("[initial]\nprofile = samples\nsamples = nan, 1, 1, 1", EXIT_CONFIG),
        ("[potential]\nscalar-profile = samples\nscalar-samples = 0, nan, 0, 0", EXIT_CONFIG),
    ],
)
def test_sampled_profiles_at_the_float_limits(tmp_path, capsys, section, expected):
    text = "[model]\nkind = schrodinger\n[grid]\npoints = 4\n[evolution]\nsteps = 3\n" + section + "\n"
    cfg = _write(tmp_path, "sampled.cfg", text)
    # Any numpy RuntimeWarning raised on the way becomes an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == expected
    captured = capsys.readouterr()
    if expected == EXIT_CONFIG:
        assert captured.err.startswith("configuration error")
        assert "finite" in captured.err and len(captured.err.splitlines()) == 1
        return
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 4
    assert all(abs(float(row[2]) - 1.0) < 1e-12 and float(row[3]) < 1e-12 for row in rows)


def test_all_zero_initial_samples_are_refused(tmp_path, capsys):
    text = ("[model]\nkind = schrodinger\n[grid]\npoints = 4\n[evolution]\nsteps = 3\n"
            "[initial]\nprofile = samples\nsamples = 0, 0, 0, 0\n")
    cfg = _write(tmp_path, "zero.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "initial state came out identically zero" in err and len(err.splitlines()) == 1
    assert not (out / "report.csv").exists()


# ---------------------------------------------------------------------------
# Property: any input ends in a documented exit with one line of explanation

_EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "0.5", "1")
_VALUES = {
    (section, f.name.replace("_", "-")): _EDGE_VALUES
    for section in ("model", "grid", "evolution", "potential", "initial", "frame", "green")
    for f in fields(getattr(RunConfig(), section))
    if f.type in ("float", float)
}
# Small integers only, so that no draw allocates a large grid.
_VALUES.update({
    ("grid", "points"): ("-1", "0", "1", "2", "3", "4", "6", "8", "16"),
    ("evolution", "steps"): ("-1", "0", "1", "2", "5"),
    ("green", "born-order"): tuple(str(k) for k in range(-1, MAX_BORN_ORDER + 2)),
    ("output", "snapshot-every"): ("-1", "0", "1", "2"),
})
# Every choice of each enum key, plus one that is not a choice.
_VALUES.update({
    key: choices + ("bogus",)
    for key, choices in (
        (("grid", "boundary"), BOUNDARY_KINDS),
        (("evolution", "method"), EVOLUTION_METHODS),
        (("potential", "scalar-profile"), POTENTIAL_PROFILES),
        (("potential", "vector-profile"), POTENTIAL_PROFILES),
        (("initial", "profile"), INITIAL_PROFILES),
        (("frame", "profile"), FRAME_PROFILES),
    )
})
_KEYS = sorted(_VALUES)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.sampled_from(["run", "green", "reduce"]),
    st.lists(
        st.sampled_from(_KEYS).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(_VALUES[key]))
        ),
        min_size=1, max_size=4, unique_by=lambda item: item[0],
    ),
)
def test_any_float_input_ends_in_a_documented_exit(kind, command, assignments):
    entries = {("model", "kind"): kind, ("grid", "points"): "8", ("evolution", "steps"): "3"}
    entries.update(assignments)
    text = "".join(f"[{section}]\n{key} = {value}\n" for (section, key), value in entries.items())
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edge.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", path])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err.getvalue()
    assert len([line for line in err.getvalue().splitlines() if line.strip()]) <= 1
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
