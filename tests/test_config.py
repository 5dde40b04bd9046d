"""Configuration validation, preset integrity, and the enumeration check
that every published-benchmark acceptance case ships as a named preset."""
import json

import pytest

import fgplate as fg
from fgplate.config import PRESETS, parse_config, preset_config
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


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.update(geometry={"type": "triangle"}), "geometry"),
        (lambda d: d.update(thickness_ratio=-1), "thickness_ratio"),
        (lambda d: d.update(degree=1), "degree"),
        (lambda d: d.update(edge_bcs="SSX S"), "edge_bcs"),
        (lambda d: d.update(shear_model="cubic9"), "shear_model"),
        (lambda d: d["material"].update(ceramic="Unobtainium"), "material preset"),
        (lambda d: d.update(report="frequency"), "report"),
        (lambda d: d.update(sweep={"axis": "bogus", "values": [1]}), "sweep.axis"),
        (lambda d: d.update(sweep={"axis": "n", "values": []}), "sweep.values"),
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
    ],
)
def test_invalid_configs_rejected(mutate, match):
    doc = minimal_static()
    mutate(doc)
    with pytest.raises(ConfigurationError, match=match):
        parse_config(doc)


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


def test_replace_reparses():
    cfg = parse_config(minimal_static())
    finer = cfg.replace(elements=7)
    assert finer.elements == 7
    graded = cfg.replace(power_index=4.0)
    assert graded.power_index == 4.0
    assert cfg.power_index == 1.0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_every_preset_parses():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.degree == 3 and cfg.elements in range(1, 26)


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
