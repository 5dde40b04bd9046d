"""CLI behavior: output schemas per report family, determinism, config echo
round-trip, exit codes for configuration and solver failures, free-plate
vibration (rigid modes written as 0, a fully free plate a mass error), and
partly supported squares (two adjacent supports solve, one is a mechanism)."""
import json
import math
from pathlib import Path

import pytest

from fgplate import PRESETS, parse_config, run_case
from fgplate.cli import main


def write_config(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def small_static(**overrides):
    doc = {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 5.0,
        "degree": 3,
        "elements": 4,
        "material": {"ceramic": "Al2O3", "metal": "Al", "scheme": "rule_of_mixture",
                     "profile": "ceramic_power", "power_index": 1.0},
        "shear_model": "atan",
        "edge_bcs": "SSSS",
        "load": {"type": "sinusoidal", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_ec",
    }
    doc.update(overrides)
    return doc


def read_lines(path: Path):
    return path.read_text().strip().split("\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_static_schema(tmp_path):
    cfg = write_config(tmp_path, small_static())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "w_bar,sigma_x_bar"
    assert len(lines) == 2
    assert (out / "config.echo.json").exists()


def test_run_vibrate_schema_sorted(tmp_path):
    doc = small_static(analysis={"type": "vibrate", "modes": 10}, report="frequency")
    doc.pop("load")
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "mode,omega_bar"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 10
    assert values == sorted(values)


def small_disk_buckle():
    doc = small_static(geometry={"type": "disk", "radius": 0.5}, thickness_ratio=0.1,
                       edge_bcs="CCCC", prestress=[[-1.0, 0.0], [0.0, -1.0]],
                       analysis={"type": "buckle", "modes": 2}, report="buckling_dm")
    doc.pop("load")
    return doc


@pytest.mark.parametrize("doc,header,n_rows", [
    pytest.param(small_static(report="bending_cpt"), "w_bar", 1, id="bending_cpt"),
    pytest.param(small_disk_buckle(), "mode,p_cr_bar", 2, id="buckling_dm"),
])
def test_run_report_header(tmp_path, doc, header, n_rows):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    assert all(len(line.split(",")) == header.count(",") + 1 for line in lines[1:])


def free_vibration(edge_bcs, **material):
    doc = small_static(elements=3, edge_bcs=edge_bcs, analysis={"type": "vibrate", "modes": 4},
                       report="frequency")
    doc.pop("load")
    doc["material"].update(material)
    return doc


def test_partly_free_vibration_reports_rigid_modes_as_zero(tmp_path):
    # the two rigid-body modes of SFFF came out at -roundoff and wrote nan
    cfg = write_config(tmp_path, free_vibration("SFFF", ceramic="ZrO2-1", scheme="mori_tanaka"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    values = [float(line.split(",")[1]) for line in read_lines(out / "results.csv")[1:]]
    assert values[:2] == [0.0, 0.0]
    assert all(math.isfinite(v) for v in values) and values[2] > 0.0


def test_fully_free_vibration_is_mass_error(tmp_path, capsys):
    # the mode wb = -ws = const has no inertia: M is singular, and the pencil
    # wrote nan or raised depending on the sign of a roundoff pivot
    cfg = write_config(tmp_path, free_vibration("FFFF"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "mass" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def edge_case(edge_bcs, elements, kind):
    """A graded a/h = 5 square under a uniform or sinusoidal load, or a
    biaxial compression, on the given edge conditions."""
    doc = small_static(elements=elements, edge_bcs=edge_bcs)
    doc["material"].update(ceramic="ZrO2-1", scheme="mori_tanaka")
    if kind == "uniform":
        doc.update(load={"type": "uniform", "q0": 1.0}, report="bending_dm")
    elif kind == "buckle":
        doc.pop("load")
        doc.update(prestress=[[-1.0, 0.0], [0.0, -1.0]], analysis={"type": "buckle", "modes": 2},
                   report="buckling_dm")
    return doc


# w_bar under the uniform load and the two p_bar at 3 elements, from before
# the in-plane rotation was pinned, when these stiffnesses still factorized
ADJACENT_SUPPORTS_BEFORE = {"uniform": [3.5619963938972], "buckle": [3.26011957065433,
                                                                     13.7751817828466]}


@pytest.mark.parametrize("edge_bcs", ["FSSF", "FSFS", "SFFS", "SFSF"])
def test_two_adjacent_simple_supports_solve(tmp_path, edge_bcs):
    # the in-plane rotation about the shared corner is pinned: every static
    # and buckling case exits 0, where one in three raised depending on roundoff
    for elements in range(2, 7):
        for kind in ("uniform", "sinusoidal", "buckle"):
            name = f"{elements}-{kind}"
            cfg = write_config(tmp_path, edge_case(edge_bcs, elements, kind), f"{name}.json")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0, name
            rows = read_lines(tmp_path / name / "results.csv")[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    for kind, expected in ADJACENT_SUPPORTS_BEFORE.items():
        report = run_case(parse_config(edge_case(edge_bcs, 3, kind))).report
        assert report.values == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("edge_bcs", ["SFFF", "FSFF", "FFSF", "FFFS"])
def test_single_simple_support_is_a_mechanism(tmp_path, capsys, edge_bcs):
    # w rotates rigidly about the one supported edge: static and buckling say
    # so before any factorization instead of reporting a roundoff answer
    for elements in range(2, 9):
        for kind in ("uniform", "buckle"):
            name = f"{elements}-{kind}"
            cfg = write_config(tmp_path, edge_case(edge_bcs, elements, kind), f"{name}.json")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 3, name
            assert "mechanism" in capsys.readouterr().err


def test_run_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, small_static())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_config_echo_round_trip(tmp_path):
    cfg = write_config(tmp_path, small_static())
    out1 = tmp_path / "a"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    echo = out1 / "config.echo.json"
    out2 = tmp_path / "b"
    assert main(["run", "--config", str(echo), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_prestress_is_config_error(tmp_path, capsys):
    doc = small_static(analysis={"type": "buckle", "modes": 2}, report="buckling_dm")
    doc.pop("load")
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "missing prestress" in capsys.readouterr().err


def test_zero_prestress_is_solver_error(tmp_path, capsys):
    doc = small_static(analysis={"type": "buckle", "modes": 2}, report="buckling_dm",
                       prestress=[[0.0, 0.0], [0.0, 0.0]])
    doc.pop("load")
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "buckling factor" in capsys.readouterr().err


def test_buckling_without_free_deflection_names_it(tmp_path, capsys):
    # one clamped element fixes the edge and its inner ring, which leaves only
    # in-plane DOFs free: the failure is the missing deflection, not the prestress
    doc = dict(PRESETS["buck-disk-atan-n0-hr0.1"], elements=1)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "deflection" in capsys.readouterr().err


def test_station_off_disk_is_config_error(tmp_path, capsys):
    doc = small_static(geometry={"type": "disk", "radius": 0.5}, thickness_ratio=0.1,
                       load={"type": "uniform", "q0": 1.0}, report="bending_dm",
                       station=[0.6, 0.0])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "station" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_non_finite_number_is_config_error(tmp_path, capsys):
    # an infinite load used to solve and write w_bar = nan with exit code 0
    cfg = write_config(tmp_path, small_static(load={"type": "uniform", "q0": float("inf")}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "load.q0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_solver_failure_exit_code(tmp_path, capsys):
    # fully free plate: singular stiffness, no static solution
    doc = small_static(edge_bcs="FFFF")
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "solver error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_mesh_emits_relative_change(tmp_path):
    doc = small_static(sweep={"axis": "mesh", "values": [3, 4, 5]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "mesh,w_bar,sigma_x_bar,rel_change"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # no change value on the first row
    change = float(lines[3].rsplit(",", 1)[1])
    assert change < 1e-2


def test_sweep_models_identical_schema(tmp_path):
    doc = small_static(sweep={"axis": "model", "values": [
        "cubic", "exponential", "sinusoidal", "quintic", "atan", "atan_sin"]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "model,w_bar,sigma_x_bar"
    assert len(lines) == 7
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_sweep_without_section_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_static())
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_output(tmp_path):
    doc = small_static(profile_samples=101)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "z_over_h,sigma_xx,sigma_yy,tau_xy,tau_xz,tau_yz"
    assert len(lines) == 102
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == -0.5 and last[0] == 0.5
    assert first[4] == 0.0 and last[4] == 0.0  # traction-free surfaces
    assert (out / "profile.svg").exists()


def test_profile_distinct_gradings_share_schema(tmp_path):
    out1, out2 = tmp_path / "n1", tmp_path / "n10"
    doc = small_static(profile_samples=21)
    cfg = write_config(tmp_path, doc, "n1.json")
    assert main(["profile", "--config", cfg, "--out", str(out1)]) == 0
    doc["material"]["power_index"] = 10.0
    cfg = write_config(tmp_path, doc, "n10.json")
    assert main(["profile", "--config", cfg, "--out", str(out2)]) == 0
    l1, l2 = read_lines(out1 / "results.csv"), read_lines(out2 / "results.csv")
    assert len(l1) == len(l2)
    assert l1[1:] != l2[1:]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "bend-sin-atan-n1-r4" in names
    assert "buck-disk-atan-n0-hr0.1" in names


def test_presets_run(tmp_path):
    out = tmp_path / "out"
    assert main(["presets", "run", "bend-uni-ssss-n1-atan", "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "w_bar"
    value = float(lines[1])
    assert abs(value - 0.2948) / 0.2948 < 3e-3
