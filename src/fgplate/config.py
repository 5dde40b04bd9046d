"""Case configuration: JSON schema, validation, and translation into models.

A case is one JSON document; the CLI only chooses the command, the config
file and the output directory. Benchmark presets are generated here so that
every published comparison case can be run by name.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import BC, PlateModel, SinusoidalLoad, UniformLoad
from .errors import ConfigurationError
from .materials import (
    MATERIALS,
    FGMSpec,
    Phase,
    Profile,
    Scheme,
    ShearModel,
    section_constants,
)
from .nurbs import Patch, make_disk_patch, make_mapped_disk_patch, make_square_patch
from .postprocess import ReportFamily

__all__ = ["CaseConfig", "load_config", "parse_config", "PRESETS", "preset_config"]

_EDGE_KEYS = ("xmin", "xmax", "ymin", "ymax")
_ANALYSES = ("static", "vibrate", "buckle")
# the configuration field each sweep axis varies
_SWEEP_FIELDS = {"n": "power_index", "aspect": "thickness_ratio", "mesh": "elements",
                 "model": "shear_model"}
_SWEEP_AXES = tuple(_SWEEP_FIELDS)

_REPORT_FOR_ANALYSIS = {
    "static": {ReportFamily.BENDING_EC, ReportFamily.BENDING_DM, ReportFamily.BENDING_CPT},
    "vibrate": {ReportFamily.FREQUENCY},
    "buckle": {ReportFamily.BUCKLING_DM},
}
_DEFAULT_REPORT = {
    "static": ReportFamily.BENDING_EC,
    "vibrate": ReportFamily.FREQUENCY,
    "buckle": ReportFamily.BUCKLING_DM,
}


@dataclass(frozen=True)
class CaseConfig:
    """Validated analysis case; geometry dims in meters, loads in Pa."""

    geometry_type: str                 # "square" | "disk"
    a: float                           # side length or radius
    b: float
    thickness_ratio: float             # a/h for squares, h/R for disks
    degree: int
    elements: int
    ceramic: Phase
    metal: Phase
    scheme: Scheme
    profile: Profile
    power_index: float
    shear_model: ShearModel
    edge_bcs: tuple[BC, BC, BC, BC]
    analysis: str
    modes: int
    report: ReportFamily
    load_type: Optional[str] = None    # "sinusoidal" | "uniform"
    q0: float = 1.0
    prestress: Optional[tuple[tuple[float, float], tuple[float, float]]] = None
    disk_net: str = "rational"         # "rational" | "mapped"
    interior_multiplicity: int = 1
    station: Optional[tuple[float, float]] = None
    profile_samples: int = 101
    sweep_axis: Optional[str] = None
    sweep_values: tuple = ()
    raw: dict = field(default_factory=dict, compare=False)

    @property
    def thickness(self) -> float:
        if self.geometry_type == "square":
            return self.a / self.thickness_ratio
        return self.a * self.thickness_ratio

    @property
    def span(self) -> float:
        """Reference length for the report formulas (side length or radius)."""
        return self.a

    def center(self) -> tuple[float, float]:
        if self.station is not None:
            return self.station
        if self.geometry_type == "square":
            return (self.a / 2.0, self.b / 2.0)
        return (0.0, 0.0)

    def build_patch(self) -> Patch:
        if self.geometry_type == "square":
            return make_square_patch(self.a, self.b, self.degree, self.elements,
                                     self.interior_multiplicity)
        if self.disk_net == "mapped":
            return make_mapped_disk_patch(self.a, self.degree, self.elements)
        return make_disk_patch(self.a, self.degree, self.elements)

    def build_model(self) -> PlateModel:
        spec = FGMSpec(ceramic=self.ceramic, metal=self.metal, n=self.power_index,
                       scheme=self.scheme, profile=self.profile)
        section = section_constants(spec, self.shear_model, self.thickness)
        load = None
        if self.load_type == "uniform":
            load = UniformLoad(self.q0)
        elif self.load_type == "sinusoidal":
            load = SinusoidalLoad(self.q0, self.a, self.b)
        prestress = None if self.prestress is None else np.asarray(self.prestress, dtype=float)
        return PlateModel(patch=self.build_patch(), section=section, spec=spec,
                          shear=self.shear_model, edge_bcs=self.edge_bcs,
                          load=load, prestress=prestress)

    def replace(self, **updates) -> "CaseConfig":
        """Re-parse the document with field-level updates. An update's key is
        its document key, except power_index, which lives in the material
        section."""
        doc = dict(self.raw, **updates)
        if "power_index" in updates:
            doc["material"] = dict(self.raw["material"], power_index=doc.pop("power_index"))
        return parse_config(doc)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigurationError(f"conflicting duplicate key {key!r} in configuration")
        seen[key] = value
    return seen


def load_config(path: str) -> CaseConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_reject_duplicate_keys)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _number(value, key: str, kind=float):
    """value read as a finite float, or as an int with kind=int; anything else,
    a fractional value for an int included, raises ConfigurationError naming
    the key."""
    try:
        number = kind(value)
        if math.isfinite(number) and number == float(value):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    kind_name = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(f"{key} must be {kind_name}, got {value!r}")


def _phase_from(doc, name: str) -> Phase:
    value = doc.get(name)
    if isinstance(value, str):
        if value not in MATERIALS:
            raise ConfigurationError(
                f"unknown material preset {value!r}; options: {sorted(MATERIALS)}"
            )
        return MATERIALS[value]
    if isinstance(value, dict):
        value = {"rho": 0.0, **value}
        try:
            return Phase(*(_number(value[k], f"material.{name}.{k}") for k in ("E", "nu", "rho")))
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid phase definition for {name!r}: needs numeric E, nu[, rho]"
            ) from exc
    raise ConfigurationError(f"material.{name} must be a preset name or a phase object")


def _edge_bcs_from(value) -> tuple[BC, BC, BC, BC]:
    if isinstance(value, str):
        letters = value.strip().upper()
        if len(letters) != 4 or any(c not in "SCF" for c in letters):
            raise ConfigurationError(f"edge_bcs string must be 4 letters from S/C/F, got {value!r}")
        return tuple(BC(c) for c in letters)
    if isinstance(value, dict):
        extra = set(value) - set(_EDGE_KEYS)
        missing = set(_EDGE_KEYS) - set(value)
        if extra or missing:
            raise ConfigurationError(f"edge_bcs mapping needs exactly the keys {_EDGE_KEYS}")
        try:
            return tuple(BC(str(value[k]).upper()) for k in _EDGE_KEYS)
        except ValueError as exc:
            raise ConfigurationError("edge conditions must be S, C or F") from exc
    raise ConfigurationError("edge_bcs must be a 4-letter string or an edge mapping")


def parse_config(doc: dict) -> CaseConfig:
    """Validate a configuration document; every problem raises before assembly."""
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration must be a JSON object")

    geometry = doc.get("geometry")
    if not isinstance(geometry, dict) or geometry.get("type") not in ("square", "disk"):
        raise ConfigurationError(
            'geometry must be {"type": "square", ...} or {"type": "disk", ...}'
        )
    gtype = geometry["type"]
    if gtype == "square":
        a = _number(geometry.get("a", 1.0), "geometry.a")
        b = _number(geometry.get("b", a), "geometry.b")
    else:
        a = b = _number(geometry.get("radius", 0.0), "geometry.radius")
    if a <= 0 or b <= 0:
        raise ConfigurationError("geometry dimensions must be positive")
    disk_net = str(geometry.get("net", "rational"))
    if disk_net not in ("rational", "mapped"):
        raise ConfigurationError('disk net must be "rational" or "mapped"')
    interior_multiplicity = _number(geometry.get("interior_multiplicity", 1),
                                    "geometry.interior_multiplicity", int)

    ratio = _number(doc.get("thickness_ratio", 0.0), "thickness_ratio")
    if ratio <= 0:
        raise ConfigurationError(
            "thickness_ratio must be positive (a/h for squares, h/R for disks)"
        )

    degree = _number(doc.get("degree", 3), "degree", int)
    elements = _number(doc.get("elements", 11), "elements", int)
    if degree < 2:
        raise ConfigurationError("degree must be at least 2 for the C1 discretization")
    if elements < 1:
        raise ConfigurationError("elements must be at least 1")
    if not 1 <= interior_multiplicity <= degree - 1:
        raise ConfigurationError("geometry.interior_multiplicity must lie in [1, degree-1]")

    material = doc.get("material")
    if not isinstance(material, dict):
        raise ConfigurationError("material section is required")
    ceramic = _phase_from(material, "ceramic")
    metal = _phase_from(material, "metal")
    try:
        scheme = Scheme(material.get("scheme", "rule_of_mixture"))
        profile = Profile(material.get("profile", "ceramic_power"))
    except ValueError as exc:
        raise ConfigurationError(f"invalid homogenization scheme/profile: {exc}") from exc
    power_index = _number(material.get("power_index", 0.0), "material.power_index")
    if power_index < 0:
        raise ConfigurationError("power_index must be nonnegative")

    try:
        shear = ShearModel(doc.get("shear_model", "atan"))
    except ValueError as exc:
        raise ConfigurationError(
            f"unknown shear_model {doc.get('shear_model')!r}; options: {[m.value for m in ShearModel]}"
        ) from exc

    edge_bcs = _edge_bcs_from(doc.get("edge_bcs", "SSSS"))

    analysis_doc = doc.get("analysis", {"type": "static"})
    if not isinstance(analysis_doc, dict) or analysis_doc.get("type") not in _ANALYSES:
        raise ConfigurationError(f"analysis.type must be one of {_ANALYSES}")
    analysis = analysis_doc["type"]
    modes = _number(analysis_doc.get("modes", 1 if analysis == "vibrate" else 4),
                    "analysis.modes", int)
    if analysis != "static" and modes < 1:
        raise ConfigurationError("analysis.modes must be at least 1")

    load_doc = doc.get("load")
    load_type = None
    q0 = 1.0
    if load_doc is not None:
        if not isinstance(load_doc, dict) or load_doc.get("type") not in ("sinusoidal", "uniform"):
            raise ConfigurationError('load must be {"type": "sinusoidal"|"uniform", "q0": ...}')
        load_type = load_doc["type"]
        q0 = _number(load_doc.get("q0", 1.0), "load.q0")
        if load_type == "sinusoidal" and gtype == "disk":
            raise ConfigurationError("sinusoidal load is defined for square geometry only")
    if analysis == "static" and load_type is None:
        raise ConfigurationError("static analysis requires a load")

    prestress = None
    if doc.get("prestress") is not None:
        arr = np.asarray(doc["prestress"], dtype=object)
        arr = np.array([_number(x, "prestress") for x in arr.ravel()]).reshape(arr.shape)
        if arr.shape != (2, 2) or not np.allclose(arr, arr.T):
            raise ConfigurationError("prestress must be a symmetric 2x2 matrix in N/m")
        prestress = tuple(map(tuple, arr.tolist()))
    if analysis == "buckle" and prestress is None:
        raise ConfigurationError(
            "buckling analysis: missing prestress state (in-plane force matrix)"
        )

    report_value = doc.get("report")
    if report_value is None:
        report = _DEFAULT_REPORT[analysis]
    else:
        try:
            report = ReportFamily(report_value)
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown report family {report_value!r}; options: {[f.value for f in ReportFamily]}"
            ) from exc
    if report not in _REPORT_FOR_ANALYSIS[analysis]:
        raise ConfigurationError(
            f"report family {report.value!r} does not apply to {analysis} analysis"
        )

    station = None
    if doc.get("station") is not None:
        pair = doc["station"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigurationError("station must be an [x, y] pair")
        station = (_number(pair[0], "station"), _number(pair[1], "station"))

    profile_samples = _number(doc.get("profile_samples", 101), "profile_samples", int)
    if profile_samples < 2:
        raise ConfigurationError("profile_samples must be at least 2")

    sweep_axis = None
    sweep_values: tuple = ()
    if doc.get("sweep") is not None:
        sweep_doc = doc["sweep"]
        if not isinstance(sweep_doc, dict) or sweep_doc.get("axis") not in _SWEEP_AXES:
            raise ConfigurationError(f"sweep.axis must be one of {_SWEEP_AXES}")
        sweep_axis = sweep_doc["axis"]
        values = sweep_doc.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError("sweep.values must be a nonempty list")
        if sweep_axis == "model":
            bad = [v for v in values if v not in {m.value for m in ShearModel}]
            if bad:
                raise ConfigurationError(f"sweep over models: unknown shear models {bad}")
            sweep_values = tuple(str(v) for v in values)
        elif sweep_axis == "mesh":
            sweep_values = tuple(_number(v, "sweep.values", int) for v in values)
            if any(v < 1 for v in sweep_values):
                raise ConfigurationError("mesh sweep values must be positive element counts")
        else:
            sweep_values = tuple(_number(v, "sweep.values") for v in values)
            if any(v <= 0 for v in sweep_values):
                raise ConfigurationError("sweep values must be positive")

    return CaseConfig(
        geometry_type=gtype, a=a, b=b, thickness_ratio=ratio, degree=degree,
        elements=elements, ceramic=ceramic, metal=metal, scheme=scheme,
        profile=profile, power_index=power_index, shear_model=shear,
        edge_bcs=edge_bcs, analysis=analysis, modes=modes, report=report,
        load_type=load_type, q0=q0, prestress=prestress, disk_net=disk_net,
        interior_multiplicity=interior_multiplicity,
        station=station, profile_samples=profile_samples,
        sweep_axis=sweep_axis, sweep_values=sweep_values, raw=_canonical_doc(doc),
    )


def _canonical_doc(doc: dict) -> dict:
    """Deep-copied plain-JSON form of the accepted document."""
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# benchmark presets
# ---------------------------------------------------------------------------

def _square_material(ceramic: str, metal: str, scheme: str, n: float) -> dict:
    return {"ceramic": ceramic, "metal": metal, "scheme": scheme,
            "profile": "ceramic_power", "power_index": n}


def _bend_sin_preset(shear: str, n: float, ratio: float) -> dict:
    # the C1 (doubled-knot) space reproduces the published center-stress
    # evaluation accuracy; deflections are insensitive to the choice
    return {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0, "interior_multiplicity": 2},
        "thickness_ratio": ratio,
        "degree": 3,
        "elements": 11,
        "material": _square_material("Al2O3", "Al", "rule_of_mixture", n),
        "shear_model": shear,
        "edge_bcs": "SSSS",
        "load": {"type": "sinusoidal", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_ec",
    }


def _bend_uni_preset(shear: str, bcs: str, ceramic: str, metal: str, n: float) -> dict:
    return {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 5.0,
        "degree": 3,
        "elements": 11,
        "material": _square_material(ceramic, metal, "mori_tanaka", n),
        "shear_model": shear,
        "edge_bcs": bcs,
        "load": {"type": "uniform", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_dm",
    }


def _vib_preset(shear: str, n: float, ratio: float, modes: int) -> dict:
    return {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": ratio,
        "degree": 3,
        "elements": 11,
        "material": _square_material("ZrO2-1", "Al", "mori_tanaka", n),
        "shear_model": shear,
        "edge_bcs": "SSSS",
        "analysis": {"type": "vibrate", "modes": modes},
        "report": "frequency",
    }


def _buckle_preset(shear: str, n: float, hr: float) -> dict:
    return {
        "geometry": {"type": "disk", "radius": 0.5, "net": "mapped"},
        "thickness_ratio": hr,
        "degree": 3,
        "elements": 11,
        "material": {"ceramic": "ZrO2-2", "metal": "Al", "scheme": "rule_of_mixture",
                     "profile": "metal_power", "power_index": n},
        "shear_model": shear,
        "edge_bcs": "CCCC",
        "prestress": [[-1.0, 0.0], [0.0, -1.0]],
        "analysis": {"type": "buckle", "modes": 4},
        "report": "buckling_dm",
    }


def _format_value(v: float) -> str:
    return f"{v:g}"


def _build_presets() -> dict[str, dict]:
    presets: dict[str, dict] = {}

    # sinusoidal bending study (ceramic-modulus report family)
    for shear in ("cubic", "atan", "atan_sin"):
        for n in (1.0, 4.0, 10.0):
            for ratio in (4.0, 10.0, 100.0):
                name = f"bend-sin-{shear}-n{_format_value(n)}-r{_format_value(ratio)}"
                presets[name] = _bend_sin_preset(shear, n, ratio)

    # uniform-load bending study under mixed supports (metal-rigidity family)
    bc_map = {"ssss": "SSSS", "cccc": "CCCC", "sfsf": "SSFF"}
    for shear in ("atan", "atan_sin"):
        for bc_key, bcs in bc_map.items():
            for label, (ceramic, metal, n) in {
                "ceramic": ("ZrO2-1", "Al", 0.0),
                "n0.5": ("ZrO2-1", "Al", 0.5),
                "n1": ("ZrO2-1", "Al", 1.0),
                "n2": ("ZrO2-1", "Al", 2.0),
                "n4": ("ZrO2-1", "Al", 4.0),
                "n8": ("ZrO2-1", "Al", 8.0),
                "metal": ("Al", "Al", 0.0),
            }.items():
                name = f"bend-uni-{bc_key}-{label}-{shear}"
                presets[name] = _bend_uni_preset(shear, bcs, ceramic, metal, n)

    # free vibration studies
    for shear in ("atan", "atan_sin"):
        for n in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
            name = f"vib-{shear}-n{_format_value(n)}-r5"
            presets[name] = _vib_preset(shear, n, 5.0, 1)
    for ratio in (5.0, 10.0, 20.0):
        for shear in ("atan", "atan_sin"):
            name = f"vib10-{shear}-n1-r{_format_value(ratio)}"
            presets[name] = _vib_preset(shear, 1.0, ratio, 10)

    # clamped-disk buckling study
    for shear in ("atan", "atan_sin"):
        for n in (0.0, 0.5, 2.0, 5.0, 10.0):
            for hr in (0.1, 0.2, 0.25, 0.3):
                name = f"buck-disk-{shear}-n{_format_value(n)}-hr{_format_value(hr)}"
                presets[name] = _buckle_preset(shear, n, hr)

    # mesh convergence study
    presets["converge-mesh"] = {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 10.0,
        "degree": 3,
        "elements": 11,
        "material": _square_material("SiC", "Al", "rule_of_mixture", 1.0),
        "shear_model": "cubic",
        "edge_bcs": "SSSS",
        "load": {"type": "sinusoidal", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_ec",
        "sweep": {"axis": "mesh", "values": [5, 9, 13, 17, 21, 25]},
    }

    # thin-limit (locking) study on an isotropic plate
    presets["locking-aspect"] = {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 10.0,
        "degree": 3,
        "elements": 11,
        "material": _square_material("Al", "Al", "rule_of_mixture", 0.0),
        "shear_model": "atan",
        "edge_bcs": "SSSS",
        "load": {"type": "uniform", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_cpt",
        "sweep": {"axis": "aspect", "values": [10.0, 100.0, 1000.0, 1e4, 1e5, 1e6]},
    }

    # shear-model comparison on the thick sinusoidal case
    presets["models-thick-bend"] = {
        **_bend_sin_preset("atan", 1.0, 4.0),
        "sweep": {"axis": "model", "values": [m.value for m in ShearModel]},
    }

    return presets


PRESETS: dict[str, dict] = _build_presets()


def preset_config(name: str) -> CaseConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; run 'fgplate presets list'")
    return parse_config(PRESETS[name])
