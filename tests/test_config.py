"""Configuration validation, preset integrity, and the enumeration check
that every published-benchmark acceptance case ships as a named preset."""
import json
import math
from pathlib import Path

import pytest

import fgplate as fg
from fgplate.config import _SWEPT, PRESETS, parse_config, preset_config
from fgplate.errors import ConfigurationError
from fgplate.materials import Profile, Scheme, ShearModel
from fgplate.postprocess import ReportFamily


def minimal_static(**overrides):
    doc = {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 5.0,
        "degree": 3,
        "elements": 4,
        "material": {"ceramic": "Al2O3", "metal": "Al", "scheme": "rule_of_mixture",
                     "profile": "ceramic_power", "power_index": 1.0},
        "shear_model": "atan",
        "edge_bcs": "SSSS",
        "load": {"type": "uniform", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_dm",
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_config_parses():
    cfg = parse_config(minimal_static())
    assert cfg.thickness == pytest.approx(0.2)
    assert cfg.center() == (0.5, 0.5)
    assert cfg.shear_model is ShearModel.ATAN


def test_disk_thickness_ratio_is_h_over_r():
    doc = minimal_static(geometry={"type": "disk", "radius": 0.5, "net": "mapped"},
                         load=None, analysis={"type": "buckle", "modes": 2},
                         prestress=[[-1, 0], [0, -1]], report="buckling_dm",
                         thickness_ratio=0.1)
    doc.pop("load")
    cfg = parse_config(doc)
    assert cfg.thickness == pytest.approx(0.05)
    assert cfg.center() == (0.0, 0.0)


def test_custom_phase_object():
    doc = minimal_static()
    doc["material"]["ceramic"] = {"E": 2.0e11, "nu": 0.25, "rho": 4000.0}
    cfg = parse_config(doc)
    assert cfg.ceramic.E == 2.0e11


@pytest.mark.parametrize("phase,match", [
    ({"nu": 0.3}, "needs numeric E, nu"),
    ({"E": -1.0, "nu": 0.3}, "modulus must be positive"),
    ({"E": 2e11, "nu": 0.3, "rho": -5.0}, "density must be nonnegative"),
])
def test_phase_object_error_names_the_fault(phase, match):
    # an out-of-range value was reported as a missing one
    doc = minimal_static()
    doc["material"]["ceramic"] = phase
    with pytest.raises(ConfigurationError, match=match):
        parse_config(doc)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.update(geometry={"type": "triangle"}), "geometry"),
        (lambda d: d.update(thickness_ratio=-1), "thickness_ratio"),
        (lambda d: d.update(degree=1), "degree"),
        (lambda d: d.update(edge_bcs="SSX S"), "edge_bcs"),
        # a disk's edges are parametric, so x/y edge names would mislabel them
        pytest.param(lambda d: d.update(edge_bcs=dict.fromkeys(("xmin", "xmax", "ymin", "ymax"), "S")),
                     "edge_bcs must be 4 letters", id="edge_bcs-mapping"),
        (lambda d: d.update(shear_model="cubic9"), "shear_model"),
        (lambda d: d["material"].update(ceramic="Unobtainium"), "material preset"),
        (lambda d: d.update(report="frequency"), "report"),
        (lambda d: d.update(sweep={"axis": "bogus", "values": [1]}), "sweep.axis"),
        (lambda d: d.update(sweep={"axis": "n", "values": []}), "sweep.values"),
        # n sweeps start at 0 like material.power_index; aspect and mesh do not
        pytest.param(lambda d: d.update(sweep={"axis": "n", "values": [0, -0.5]}),
                     "nonnegative for n", id="negative-n-sweep"),
        pytest.param(lambda d: d.update(sweep={"axis": "aspect", "values": [0]}),
                     "must be positive", id="zero-aspect-sweep"),
        pytest.param(lambda d: d.update(sweep={"axis": "mesh", "values": [0]}),
                     "mesh sweep values", id="zero-mesh-sweep"),
        (lambda d: d.update(station=[0.1]), "station"),
        # a value that is not a finite number names its key
        pytest.param(lambda d: d.update(thickness_ratio=float("nan")), "thickness_ratio",
                     id="nan-thickness_ratio"),
        pytest.param(lambda d: d.update(thickness_ratio="nan"), "thickness_ratio",
                     id="nan-string-thickness_ratio"),
        pytest.param(lambda d: d["material"].update(power_index=float("nan")),
                     "material.power_index", id="nan-power_index"),
        pytest.param(lambda d: d["material"].update(ceramic={"E": float("nan"), "nu": 0.3}),
                     "material.ceramic.E", id="nan-phase-E"),
        pytest.param(lambda d: d["geometry"].update(a=float("inf")), "geometry.a",
                     id="inf-geometry.a"),
        pytest.param(lambda d: d["geometry"].update(a="abc"), "geometry.a",
                     id="text-geometry.a"),
        pytest.param(lambda d: d["load"].update(q0=float("inf")), "load.q0", id="inf-q0"),
        pytest.param(lambda d: d["load"].update(q0=None), "load.q0", id="null-q0"),
        pytest.param(lambda d: d.update(station=[float("nan"), 0.5]), "station",
                     id="nan-station"),
        pytest.param(lambda d: d.update(degree="x"), "degree", id="text-degree"),
        pytest.param(lambda d: d.update(elements=4.5), "elements", id="fractional-elements"),
        # the reports divide by q0
        pytest.param(lambda d: d["load"].update(q0=0), "load.q0", id="zero-q0"),
        # a station off the plate is a configuration error, not a failed inverse map
        pytest.param(lambda d: d.update(station=[1.5, 0.5]), "station", id="station-off-square"),
        pytest.param(lambda d: d.update(geometry={"type": "disk", "radius": 0.5},
                                        station=[0.6, 0.0]), "station", id="station-off-disk"),
    ],
)
def test_invalid_configs_rejected(mutate, match):
    doc = minimal_static()
    mutate(doc)
    with pytest.raises(ConfigurationError, match=match):
        parse_config(doc)


def analysis_doc(analysis, **overrides):
    """A minimal valid document for each analysis type."""
    if analysis == "static":
        return minimal_static(**overrides)
    doc = minimal_static(analysis={"type": analysis, "modes": 2}, **overrides)
    doc.pop("load")
    if analysis == "buckle":
        doc["prestress"] = [[-1.0, 0.0], [0.0, -1.0]]
    return doc


REPORTS_FOR_ANALYSIS = {
    "static": {"bending_ec", "bending_dm", "bending_cpt"},
    "vibrate": {"frequency"},
    "buckle": {"buckling_dm"},
}


@pytest.mark.parametrize("family", [f.value for f in ReportFamily])
@pytest.mark.parametrize("analysis", sorted(REPORTS_FOR_ANALYSIS))
def test_report_family_applies_to_its_analysis(analysis, family):
    doc = analysis_doc(analysis, report=family)
    if family in REPORTS_FOR_ANALYSIS[analysis]:
        assert parse_config(doc).report is ReportFamily(family)
    else:
        with pytest.raises(ConfigurationError, match="does not apply"):
            parse_config(doc)


@pytest.mark.parametrize("analysis,default", [
    ("static", ReportFamily.BENDING_EC),
    ("vibrate", ReportFamily.FREQUENCY),
    ("buckle", ReportFamily.BUCKLING_DM),
])
def test_default_report_family(analysis, default):
    doc = analysis_doc(analysis)
    doc.pop("report")
    assert parse_config(doc).report is default


@pytest.mark.parametrize("overrides", [
    {"station": [1.0, 1.0]},
    {"station": [0.0, 0.0]},
    {"station": [0.5, 0.0], "geometry": {"type": "disk", "radius": 0.5}, "thickness_ratio": 0.1},
], ids=["square-corner", "square-origin", "disk-rim"])
def test_station_on_boundary_runs(overrides):
    config = parse_config(minimal_static(elements=3, **overrides))
    assert config.station == tuple(overrides["station"])
    # every edge is simply supported, so the deflection vanishes there
    assert abs(fg.run_case(config).w_center) < 1e-12


# (0.4995, 0) and rim points at 0, 0.3, 2.0 and 4.0 rad: outside the mapped
# net of 11 cubic elements, whose boundary sags up to 0.37% inside the circle
RIM_STATIONS = [(0.4995, 0.0)] + [(0.5 * math.cos(t), 0.5 * math.sin(t))
                                  for t in (0.0, 0.3, 2.0, 4.0)]


@pytest.mark.parametrize("station", RIM_STATIONS)
def test_station_outside_mapped_net_rejected(station):
    # such a station used to pass parse_config and exit 3 as a failed inverse map
    doc = minimal_static(geometry={"type": "disk", "radius": 0.5, "net": "mapped"},
                         thickness_ratio=0.1, elements=11, station=list(station))
    with pytest.raises(ConfigurationError, match=r'outside the mapped net.*"net": "rational"'):
        parse_config(doc)
    doc["geometry"]["net"] = "rational"
    patch = parse_config(doc).build_patch()
    u, v = fg.nurbs.locate_point(patch, *station)
    assert math.dist(fg.nurbs.evaluate_point(patch, u, v), station) < 1e-13


def test_station_inside_mapped_net_accepted():
    # the mapped net's boundary meets the circle at the 45-degree corners
    corner = 0.5 / math.sqrt(2.0)
    for station in ((0.3, -0.2), (corner, corner)):
        doc = minimal_static(geometry={"type": "disk", "radius": 0.5, "net": "mapped"},
                             thickness_ratio=0.1, elements=11, station=list(station))
        assert parse_config(doc).station == station


def test_static_requires_load():
    doc = minimal_static()
    doc.pop("load")
    with pytest.raises(ConfigurationError, match="load"):
        parse_config(doc)


def test_buckle_requires_prestress():
    doc = minimal_static(analysis={"type": "buckle", "modes": 2}, report="buckling_dm")
    with pytest.raises(ConfigurationError, match="missing prestress"):
        parse_config(doc)


def test_sinusoidal_load_rejected_on_disk():
    doc = minimal_static(geometry={"type": "disk", "radius": 1.0},
                         load={"type": "sinusoidal", "q0": 1.0})
    with pytest.raises(ConfigurationError, match="sinusoidal"):
        parse_config(doc)


def test_duplicate_edge_spec_keys_rejected(tmp_path):
    text = json.dumps(minimal_static())
    text = text.replace('"edge_bcs": "SSSS"', '"edge_bcs": "SSSS", "edge_bcs": "CCCC"')
    path = tmp_path / "case.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="duplicate"):
        fg.load_config(str(path))


def test_sweep_axes_vary_their_fields():
    assert {axis: key.field for axis, key in _SWEPT.items()} == {
        "n": "power_index", "aspect": "thickness_ratio", "mesh": "elements",
        "model": "shear_model"}


@pytest.mark.parametrize("key", ["load", "prestress", "report", "station", "sweep"])
def test_null_optional_key_means_absent(key):
    doc = analysis_doc("vibrate", report="frequency")
    doc[key] = None
    assert parse_config(doc) == parse_config(analysis_doc("vibrate", report="frequency"))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_every_preset_parses():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.degree == 3 and cfg.elements in range(1, 26)


REF_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "ref"


@pytest.mark.parametrize("workload", ["table-11", "fine-mesh"])
def test_benchmark_documents_parse(workload):
    # the benchmark parses these documents, and n sweeps over them: the closed
    # contract must accept every one of them
    documents = json.loads((REF_DIR / f"{workload}.json").read_text())["documents"]
    assert documents
    for name, doc in documents.items():
        parse_config(doc)
        swept = parse_config(dict(doc, sweep={"axis": "n", "values": [0.0, 2.0]}))
        assert swept.sweep_values == (0.0, 2.0), name


def test_unknown_preset():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        preset_config("no-such-case")


# enumeration: one named preset per golden acceptance case
GOLDEN_PRESETS = {
    # sinusoidal bending goldens (ceramic-modulus family)
    "bend-sin-atan-n1-r4": dict(analysis="static", shear=ShearModel.ATAN, n=1.0, ratio=4.0),
    "bend-sin-atan_sin-n1-r4": dict(analysis="static", shear=ShearModel.ATAN_SIN, n=1.0, ratio=4.0),
    "bend-sin-cubic-n1-r4": dict(analysis="static", shear=ShearModel.CUBIC, n=1.0, ratio=4.0),
    "bend-sin-atan-n10-r10": dict(analysis="static", shear=ShearModel.ATAN, n=10.0, ratio=10.0),
    "bend-sin-atan-n4-r100": dict(analysis="static", shear=ShearModel.ATAN, n=4.0, ratio=100.0),
    # uniform-load goldens (metal-rigidity family)
    "bend-uni-ssss-n1-atan": dict(analysis="static", shear=ShearModel.ATAN, n=1.0, ratio=5.0),
    "bend-uni-cccc-ceramic-atan": dict(analysis="static", shear=ShearModel.ATAN, n=0.0, ratio=5.0),
    "bend-uni-sfsf-metal-atan": dict(analysis="static", shear=ShearModel.ATAN, n=0.0, ratio=5.0),
    # frequency goldens
    "vib-atan_sin-n1-r5": dict(analysis="vibrate", shear=ShearModel.ATAN_SIN, n=1.0, ratio=5.0),
    "vib-atan-n0-r5": dict(analysis="vibrate", shear=ShearModel.ATAN, n=0.0, ratio=5.0),
    "vib10-atan-n1-r10": dict(analysis="vibrate", shear=ShearModel.ATAN, n=1.0, ratio=10.0, modes=10),
    # disk buckling goldens
    "buck-disk-atan-n0-hr0.1": dict(analysis="buckle", shear=ShearModel.ATAN, n=0.0, ratio=0.1),
    "buck-disk-atan-n2-hr0.2": dict(analysis="buckle", shear=ShearModel.ATAN, n=2.0, ratio=0.2),
    "buck-disk-atan_sin-n5-hr0.25": dict(analysis="buckle", shear=ShearModel.ATAN_SIN, n=5.0, ratio=0.25),
    # study presets
    "converge-mesh": dict(analysis="static", shear=ShearModel.CUBIC, n=1.0, ratio=10.0, sweep="mesh"),
    "locking-aspect": dict(analysis="static", shear=ShearModel.ATAN, n=0.0, ratio=10.0, sweep="aspect"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PRESETS))
def test_golden_cases_have_presets(name):
    expected = GOLDEN_PRESETS[name]
    cfg = preset_config(name)
    assert cfg.analysis == expected["analysis"]
    assert cfg.shear_model is expected["shear"]
    assert cfg.power_index == expected["n"]
    assert cfg.thickness_ratio == expected["ratio"]
    if "modes" in expected:
        assert cfg.modes == expected["modes"]
    if "sweep" in expected:
        assert cfg.sweep_axis == expected["sweep"]
    if cfg.analysis == "buckle":
        assert cfg.geometry_type == "disk" and cfg.disk_net == "mapped"
        assert cfg.profile is Profile.METAL_POWER
        assert cfg.scheme is Scheme.RULE_OF_MIXTURE
        assert cfg.report is ReportFamily.BUCKLING_DM
    if cfg.analysis == "vibrate":
        assert cfg.scheme is Scheme.MORI_TANAKA
