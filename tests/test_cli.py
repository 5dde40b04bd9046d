"""CLI behavior: output schemas per report family, determinism, the config
echo (the document read) and its round-trip, exit codes for configuration
and solver failures, free-plate vibration (rigid modes written as 0, a fully
free plate a mass error), partly supported squares (two adjacent
supports solve, one is a mechanism), and the simply supported corners that
the mapped disk net refuses."""
import json
import math
from pathlib import Path

import pytest

from fgplate import PRESETS, cases, parse_config, run_case, solvers
from fgplate.cli import main
from fgplate.errors import ConfigurationError


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
    # the rigid-body modes of SFFF came out at -roundoff and wrote nan, and
    # eigh(K, M) made them nonzero or negative at a/h = 1e4 and 1e6; the
    # third, the in-plane translation u0, is left free with a mass matrix
    for ratio in (5.0, 1e4, 1e6):
        doc = free_vibration("SFFF", ceramic="ZrO2-1", scheme="mori_tanaka")
        doc["thickness_ratio"] = ratio
        out = tmp_path / f"out-{ratio:g}"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        values = [float(line.split(",")[1]) for line in read_lines(out / "results.csv")[1:]]
        assert values[:3] == [0.0, 0.0, 0.0]
        assert all(math.isfinite(v) for v in values) and values[3] > 0.0


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


def echo_of(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command,doc", [
    pytest.param("run", small_static(), id="run-static"),
    pytest.param("run", small_static(sweep={"axis": "n", "values": [0.0, 2.0]}), id="run-sweep"),
    pytest.param("sweep", small_static(sweep={"axis": "n", "values": [0.0, 2.0]}), id="sweep"),
    pytest.param("profile", small_static(profile_samples=5), id="profile"),
])
def test_echo_is_the_document_read(tmp_path, command, doc):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert (out / "config.echo.json").read_text(encoding="utf-8") == echo_of(doc)


def test_preset_echo_is_the_preset_document(tmp_path):
    out = tmp_path / "out"
    assert main(["presets", "run", "models-thick-bend", "--out", str(out)]) == 0
    assert (out / "config.echo.json").read_text(encoding="utf-8") == echo_of(
        PRESETS["models-thick-bend"])


def test_failed_run_writes_neither_file(tmp_path, capsys):
    # a tensile prestress fails after the solve, where the table would be written
    doc = small_disk_buckle()
    doc["prestress"] = [[1.0, 0.0], [0.0, 1.0]]
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert "no positive buckling factor" in capsys.readouterr().err
    assert not (out / "results.csv").exists() and not (out / "config.echo.json").exists()


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


def test_tensile_prestress_has_no_buckling_load(tmp_path, capsys):
    # tension stiffens the disk: no positive factor, and no compressive
    # loads reported in its place
    doc = dict(PRESETS["buck-disk-atan-n0-hr0.1"], prestress=[[1.0, 0.0], [0.0, 1.0]])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "no positive buckling factor" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_buckling_without_free_deflection_names_it(tmp_path, capsys):
    # one clamped element fixes the edge and its inner ring, which leaves only
    # in-plane DOFs free: the failure is the missing deflection, not the prestress
    doc = dict(PRESETS["buck-disk-atan-n0-hr0.1"], elements=1)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "deflection" in capsys.readouterr().err


@pytest.mark.parametrize("geometry,degree,elements,edge_bcs", [
    ({"type": "square", "a": 1.0}, 3, 1, "FCCC"),
    ({"type": "disk", "radius": 0.5}, 3, 1, "CCFF"),
    ({"type": "square", "a": 1.0}, 2, 1, "CCCC"),
    ({"type": "square", "a": 1.0}, 2, 2, "CCCC"),
    ({"type": "square", "a": 1.0}, 3, 1, "CCCC"),
])
def test_static_case_that_cannot_deflect_is_solver_error(tmp_path, capsys, geometry, degree,
                                                          elements, edge_bcs):
    # the clamps fix every wb and ws: these wrote w_bar = sigma_bar = 0 with exit 0
    doc = small_static(geometry=geometry, degree=degree, elements=elements, edge_bcs=edge_bcs,
                       load={"type": "uniform", "q0": 1.0}, report="bending_dm")
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert "no free deflection DOF" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_station_off_disk_is_config_error(tmp_path, capsys):
    doc = small_static(geometry={"type": "disk", "radius": 0.5}, thickness_ratio=0.1,
                       load={"type": "uniform", "q0": 1.0}, report="bending_dm",
                       station=[0.6, 0.0])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "station" in capsys.readouterr().err


_DISK = {"type": "disk", "radius": 0.5}


@pytest.mark.parametrize("geometry,degree,elements,station,where", [
    ({"type": "square", "a": 1.0}, 3, 11, [1.0000000000005, 0.5], "square"),
] + [
    (_DISK, 3, 11, [0.5 * (1.0 + 1e-13) * f(math.radians(t)) for f in (math.cos, math.sin)],
     "disk") for t in (0.0, 22.5, 45.0)
] + [
    # beyond a corner of the disk, where the inverse map's Jacobian is singular
    (_DISK, 2, 5, [-0.38, -0.38], "disk"),
], ids=["square-edge", "disk-0deg", "disk-22.5deg", "disk-45deg", "disk-singular-corner"])
def test_station_the_net_cannot_locate_exits_2(tmp_path, capsys, geometry, degree, elements,
                                                station, where):
    # the first four lie 1e-13 of the span off the plate: they passed
    # parse_config and then exited 3 as a failed inverse map or a singular
    # Jacobian. The message gives the station in full: with :g the first
    # printed as (1, 0.5), a point on the square
    doc = small_static(geometry=geometry, degree=degree, elements=elements, station=station,
                       load={"type": "uniform", "q0": 1.0}, report="bending_dm")
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    x, y = station
    assert f"station ({x!r}, {y!r}) lies outside the {where}" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_station_outside_mapped_net_is_config_error(tmp_path, capsys):
    doc = small_static(geometry={"type": "disk", "radius": 0.5, "net": "mapped"},
                       thickness_ratio=0.1, elements=11, load={"type": "uniform", "q0": 1.0},
                       report="bending_dm", station=[0.4995, 0.0])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "mapped net" in capsys.readouterr().err


def test_mesh_sweep_station_outside_a_later_net_exits_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # (0.49, 0) lies inside the mapped net at 11 and 12 elements, not on one
    # element: the sweep used to solve two cases before the third raised
    doc = small_static(geometry={"type": "disk", "radius": 0.5, "net": "mapped"},
                       thickness_ratio=0.1, elements=11, edge_bcs="CCCC",
                       load={"type": "uniform", "q0": 1.0}, report="bending_dm",
                       station=[0.49, 0.0], sweep={"axis": "mesh", "values": [11, 12, 1]})
    with pytest.raises(ConfigurationError, match="mapped net"):
        parse_config(doc)
    solves = []
    monkeypatch.setattr(cases, "solve_static",
                        lambda *args: solves.append(args) or solvers.solve_static(*args))
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "with 1 elements of degree 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()
    assert solves == []


@pytest.mark.parametrize("net,bcs,corner", [
    ("mapped", "SSSS", "(0, 0)"), ("mapped", "SCCS", "(0, 1)"),
    ("mapped", "SSCC", None), ("mapped", "CCCC", None), ("rational", "SSSS", None),
])
def test_simply_supported_corner_on_the_mapped_net_is_config_error(tmp_path, capsys, net,
                                                                    bcs, corner):
    # the mapped net's first buckling load was +81% (SSSS) and +21% (SCCS)
    # against the rational net's, with exit 0
    doc = small_static(geometry={"type": "disk", "radius": 0.5, "net": net},
                       thickness_ratio=0.01, edge_bcs=bcs, analysis={"type": "buckle", "modes": 1},
                       prestress=[[-1.0, 0.0], [0.0, -1.0]], report="buckling_dm")
    doc.pop("load")
    out = tmp_path / "out"
    exit_code = main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err
    if corner is None:
        assert exit_code == 0 and (out / "results.csv").exists()
        return
    assert exit_code == 2 and not (out / "results.csv").exists()
    assert f"corner (u, v) = {corner} of the mapped net" in err and '"net": "rational"' in err


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


@pytest.mark.parametrize("analysis", ["static", "buckle"])
def test_solver_failure_exit_code(tmp_path, capsys, analysis):
    # fully free plate: singular stiffness, no static solution and no
    # buckling load; the message names the cause, not a Cholesky pivot
    doc = small_static(edge_bcs="FFFF", load={"type": "uniform", "q0": 1.0})
    if analysis == "buckle":
        doc.update(analysis={"type": "buckle", "modes": 1},
                   prestress=[[-1.0, 0.0], [0.0, -1.0]], report="buckling_dm")
        del doc["load"]
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "free on every edge" in err


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


def test_mesh_sweep_compares_each_mode_with_its_own_previous_value(tmp_path):
    # SFFF has three rigid modes (omega_bar = 0): their rows stay blank, and
    # mode 4 gets its own change, not the first mode's
    doc = small_static(edge_bcs="SFFF", analysis={"type": "vibrate", "modes": 4},
                       report="frequency", sweep={"axis": "mesh", "values": [2, 3, 4]})
    del doc["load"]
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == "mesh,mode,omega_bar,rel_change"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12
    assert [row[3] for row in rows[:4]] == [""] * 4
    for block in (rows[4:8], rows[8:12]):
        assert [float(row[2]) for row in block[:3]] == [0.0] * 3
        assert [row[3] for row in block[:3]] == [""] * 3
    # from omega_bar as written, to 7 digits: about 4e-4 of the change
    omega = [float(rows[i][2]) for i in (3, 7, 11)]
    for prev, row, now in zip(omega, (rows[7], rows[11]), omega[1:]):
        assert float(row[3]) == pytest.approx(abs(now - prev) / prev, rel=2e-3)
        assert 0.0 < float(row[3]) < 1e-2


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


def test_run_dispatches_a_sweep_config_like_sweep(tmp_path):
    # run used to solve only the base case of a sweep config: one row, at 11
    # elements, for a mesh sweep over [3, 4]
    doc = small_static(sweep={"axis": "mesh", "values": [3, 4]})
    cfg = write_config(tmp_path, doc)
    for command in ("run", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    ran = (tmp_path / "run" / "results.csv").read_bytes()
    assert ran == (tmp_path / "sweep" / "results.csv").read_bytes()
    assert [line.split(",")[0] for line in ran.decode().split("\n")[1:3]] == [
        "3.000000e+00", "4.000000e+00"]


def test_profile_with_sweep_section_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_static(sweep={"axis": "n", "values": [0.0, 1.0]}))
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "sweep section" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


# ---------------------------------------------------------------------------
# the closed input contract: unknown keys, keys that do not apply, sweep
# values out of their field's bound and massless phases in a vibration
# ---------------------------------------------------------------------------

def small_vibration():
    doc = small_static(analysis={"type": "vibrate", "modes": 1}, report="frequency")
    doc.pop("load")
    return doc


def small_disk_static():
    return small_static(geometry={"type": "disk", "radius": 0.5}, thickness_ratio=0.1,
                        load={"type": "uniform", "q0": 1.0}, report="bending_dm")


CONTRACT_RULES = {
    # each used to exit 0 and solve as if the key were absent
    "unknown-top-level": (small_vibration, lambda d: d.update(elemnts=40),
                          ["'elemnts'", "did you mean 'elements'"]),
    "unknown-geometry": (small_vibration, lambda d: d["geometry"].update(nett="mapped"),
                         ["'geometry.nett'", "did you mean 'geometry.net'"]),
    "unknown-material": (small_vibration, lambda d: d["material"].update(power_indx=5),
                         ["'material.power_indx'", "did you mean 'material.power_index'"]),
    "unknown-phase": (small_static,
                      lambda d: d["material"].update(ceramic={"E": 2e11, "nu": 0.3, "rh": 3e3}),
                      ["'material.ceramic.rh'", "did you mean 'material.ceramic.rho'"]),
    "modes-on-static": (small_static, lambda d: d["analysis"].update(modes=-3),
                        ["analysis.modes does not apply", "static"]),
    "load-on-vibration": (small_vibration, lambda d: d.update(load={"type": "uniform", "q0": 1.0}),
                          ["load does not apply", "vibrate"]),
    "station-on-vibration": (small_vibration, lambda d: d.update(station=[0.3, 0.3]),
                             ["station does not apply", "vibrate"]),
    "prestress-on-vibration": (small_vibration,
                               lambda d: d.update(prestress=[[-1e9, 0.0], [0.0, -1e9]]),
                               ["prestress does not apply", "vibrate"]),
    "radius-on-square": (small_static, lambda d: d["geometry"].update(radius=0.5),
                         ["geometry.radius does not apply", "square"]),
    "net-on-square": (small_static, lambda d: d["geometry"].update(net="mapped"),
                      ["geometry.net does not apply", "square"]),
    "a-on-disk": (small_disk_static, lambda d: d["geometry"].update(a=0.5),
                  ["geometry.a does not apply", "disk"]),
    "mesh-sweep-value": (small_static, lambda d: d.update(sweep={"axis": "mesh", "values": [3, 0]}),
                         ["mesh sweep values", "elements", "got 0"]),
    "n-sweep-value": (small_static, lambda d: d.update(sweep={"axis": "n", "values": [1, -0.5]}),
                      ["n sweep values", "material.power_index", "got -0.5"]),
    "aspect-sweep-value": (small_static,
                           lambda d: d.update(sweep={"axis": "aspect", "values": [0]}),
                           ["aspect sweep values", "thickness_ratio", "got 0.0"]),
}


@pytest.mark.parametrize("rule", sorted(CONTRACT_RULES))
def test_closed_contract_rule_is_config_error(tmp_path, capsys, rule):
    make, mutate, expected = CONTRACT_RULES[rule]
    doc = make()
    cfg = write_config(tmp_path, doc, "valid.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "valid")]) == 0
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("n", [0.0, 1.0])
@pytest.mark.parametrize("ceramic", ["SiC", {"E": 427e9, "nu": 0.17}], ids=["SiC", "no-rho"])
def test_massless_phase_in_a_vibration_is_config_error(tmp_path, capsys, ceramic, n):
    # SiC has rho = 0: at n = 0 this exited 3 (mass matrix not positive
    # definite), at n = 1 it exited 0 with a frequency of a massless ceramic
    doc = small_vibration()
    doc["material"].update(ceramic=ceramic, power_index=n)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "material.ceramic" in err and "phase object with rho" in err
    doc["material"]["ceramic"] = {"E": 427e9, "nu": 0.17, "rho": 3100.0}
    cfg = write_config(tmp_path, doc, "with-rho.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "with-rho")]) == 0


@pytest.mark.parametrize("doc", [small_static(), small_disk_buckle()], ids=["static", "buckle"])
def test_massless_phase_solves_without_inertia(tmp_path, doc):
    doc = json.loads(json.dumps(doc))
    doc["material"]["ceramic"] = "SiC"
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
