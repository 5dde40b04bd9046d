"""Case configuration: JSON schema, validation, and translation into models.

A case is one JSON document; the CLI only chooses the command, the config
file and the output directory. Benchmark presets are generated here so that
every published comparison case can be run by name.

The table _KEYS is the schema. Each row is one accepted document key: its
path, the CaseConfig field it sets, its reader, its default and bound, where
it applies (the analyses or the geometry type) and the sweep axis that
varies it, if any. parse_config walks the table and then makes the checks
that span fields. A sweep is parsed once: each value is read and bounded by
the row of the field its axis varies, and gets the cross-field checks that
depend on that field (a mesh sweep checks its station on each value's net),
so every value's error raises before the first solve. A case of the sweep
is the parsed configuration with that one field set.

The contract is closed. A key that no row names is an error that names the
closest known key. A key given where its row does not apply is an error
too: analysis.modes outside vibrate and buckle, load, station and
profile_samples outside static, prestress outside buckle, and a geometry
key of the other geometry type. A null value means absent for the optional
keys: load, prestress, report, station and sweep.
"""
from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assembly import BC, PlateModel, SinusoidalLoad, UniformLoad
from .errors import ConfigurationError, GeometryError
from .materials import (
    MATERIALS,
    FGMSpec,
    Phase,
    Profile,
    Scheme,
    ShearModel,
    section_constants,
)
from .nurbs import Patch, locate_point, make_disk_patch, make_mapped_disk_patch, make_square_patch
from .postprocess import ReportFamily

__all__ = ["CaseConfig", "load_config", "parse_config", "PRESETS", "preset_config"]

_ANALYSES = ("static", "vibrate", "buckle")
_PHASE_KEYS = ("E", "nu", "rho")


@dataclass(frozen=True)
class CaseConfig:
    """Validated analysis case; geometry dims in meters, loads in Pa.

    parse_config builds it from the rows of _KEYS, which own every field's
    default, so no field has one here."""

    geometry_type: str                 # "square" | "disk"
    a: float                           # side length or radius: the reports' length
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
    load_type: Optional[str]           # "sinusoidal" | "uniform"
    q0: float
    prestress: Optional[tuple[tuple[float, float], tuple[float, float]]]
    disk_net: str                      # "rational" | "mapped"
    interior_multiplicity: int
    station: Optional[tuple[float, float]]
    profile_samples: int
    sweep_axis: Optional[str]
    sweep_values: tuple

    @property
    def thickness(self) -> float:
        if self.geometry_type == "square":
            return self.a / self.thickness_ratio
        return self.a * self.thickness_ratio

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

    def build_model(self, patch: Optional[Patch] = None) -> PlateModel:
        """The case's plate model, on the given patch (which must be this
        configuration's build_patch()) or on a newly built one.

        The mapped net answers wrongly where a simply supported u edge
        meets a simply supported v edge (first buckling load +21% with one
        such corner, +81% with four, against the rational net), so such a
        case raises ConfigurationError here, before it is assembled.
        """
        bcs = self.edge_bcs
        corners = [(i, j - 2) for i in (0, 1) for j in (2, 3)
                   if bcs[i] is bcs[j] is BC.SIMPLY_SUPPORTED]
        if corners and self.geometry_type == "disk" and self.disk_net == "mapped":
            raise ConfigurationError(
                f"edge_bcs {''.join(bc.value for bc in bcs)}: simply supported edges meet at "
                f"the corner (u, v) = {corners[0]} of the mapped net, which answers wrongly "
                f'there; use "net": "rational"')
        spec = FGMSpec(ceramic=self.ceramic, metal=self.metal, n=self.power_index,
                       scheme=self.scheme, profile=self.profile)
        section = section_constants(spec, self.shear_model, self.thickness)
        load = None
        if self.load_type == "uniform":
            load = UniformLoad(self.q0)
        elif self.load_type == "sinusoidal":
            load = SinusoidalLoad(self.q0, self.a, self.b)
        prestress = None if self.prestress is None else np.asarray(self.prestress, dtype=float)
        return PlateModel(patch=self.build_patch() if patch is None else patch,
                          section=section, spec=spec,
                          shear=self.shear_model, edge_bcs=self.edge_bcs,
                          load=load, prestress=prestress)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigurationError(f"conflicting duplicate key {key!r} in configuration")
        seen[key] = value
    return seen


def _read_document(path: str):
    """The JSON document in the file at path, unchecked: parse_config checks it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_reject_duplicate_keys)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc


def load_config(path: str) -> CaseConfig:
    return parse_config(_read_document(path))


# ---------------------------------------------------------------------------
# readers: (value, document path) -> field value, or ConfigurationError
# ---------------------------------------------------------------------------

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


def _int(value, path: str) -> int:
    return _number(value, path, int)


def _one_of(options):
    """Reader of one of options, strings or the members of a str Enum; the
    value comes back as the option it equals."""
    by_name = {getattr(option, "value", option): option for option in options}

    def read(value, path):
        try:
            return by_name[value]
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"{path} must be one of {list(by_name)}, got {value!r}") from None
    return read


def _check_names(mapping: dict, path: str, known) -> None:
    """Every key of mapping must be known; an unknown one is named with the
    closest known key."""
    prefix = f"{path}." if path else ""
    for name in mapping:
        if name not in known:
            close = difflib.get_close_matches(str(name), known, n=1)
            hint = f"did you mean {prefix + close[0]!r}?" if close else f"known keys: {list(known)}"
            raise ConfigurationError(f"unknown key {prefix + str(name)!r}; {hint}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path or 'configuration'} must be a JSON object")
    _check_names(value, path, _NAMES[path])
    return value


def _phase(value, path: str) -> Phase:
    if isinstance(value, str):
        if value not in MATERIALS:
            raise ConfigurationError(
                f"unknown material preset {value!r}; options: {sorted(MATERIALS)}"
            )
        return MATERIALS[value]
    if isinstance(value, dict):
        _check_names(value, path, _PHASE_KEYS)
        value = {"rho": 0.0, **value}
        try:
            return Phase(*(_number(value[k], f"{path}.{k}") for k in _PHASE_KEYS))
        except KeyError as exc:
            raise ConfigurationError(
                f"invalid phase definition for {path!r}: needs numeric E, nu[, rho]"
            ) from exc
        except ValueError as exc:  # a value out of the phase's range
            raise ConfigurationError(f"invalid phase definition for {path!r}: {exc}") from exc
    raise ConfigurationError(f"{path} must be a preset name or a phase object")


def _edge_bcs(value, path: str) -> tuple[BC, BC, BC, BC]:
    letters = value.strip().upper() if isinstance(value, str) else ""
    if len(letters) != 4 or any(c not in "SCF" for c in letters):
        raise ConfigurationError(f"{path} must be 4 letters from S/C/F, got {value!r}")
    return tuple(BC(c) for c in letters)


def _prestress(value, path: str):
    arr = np.asarray(value, dtype=object)
    arr = np.array([_number(x, path) for x in arr.ravel()]).reshape(arr.shape)
    if arr.shape != (2, 2) or not np.allclose(arr, arr.T):
        raise ConfigurationError(f"{path} must be a symmetric 2x2 matrix in N/m")
    return tuple(map(tuple, arr.tolist()))


def _station(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigurationError(f"{path} must be an [x, y] pair")
    return (_number(value[0], path), _number(value[1], path))


def _sweep_axis(value, path: str) -> str:
    return _one_of(tuple(_SWEPT))(value, path)


def _sweep_values(value, path: str) -> tuple:
    """The list only; each value is read by the row its axis varies."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(f"{path} must be a nonempty list")
    return tuple(value)


# ---------------------------------------------------------------------------
# the table of accepted keys
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be given
_POSITIVE = (lambda v: v > 0, "positive")


class _Key(NamedTuple):
    """One accepted document key.

    field is None for a section, which is read as an object of its own keys.
    default is the value of a missing key, or a function of the fields read
    before it; None makes the key optional, and a null value then means
    absent too. bound is a predicate on the read value and its wording.
    only lists the analyses or the geometry type the key applies to, every
    case if empty. A key that does not apply, or whose section is absent,
    gives its field the default unread (None if the key is required).
    """

    path: str
    field: Optional[str]
    read: Callable
    default: object = _REQUIRED
    bound: Optional[tuple] = None
    only: tuple = ()
    axis: Optional[str] = None

    def applies(self, analysis: str, geometry: str) -> bool:
        return not self.only or analysis in self.only or geometry in self.only


_KEYS = (  # the analysis and the geometry type come first: where a key applies depends on them
    _Key("analysis", None, _object, {"type": "static"}),
    _Key("analysis.type", "analysis", _one_of(_ANALYSES)),
    _Key("geometry", None, _object),
    _Key("geometry.type", "geometry_type", _one_of(("square", "disk"))),
    _Key("geometry.a", "a", _number, 1.0, _POSITIVE, only=("square",)),
    _Key("geometry.radius", "a", _number, bound=_POSITIVE, only=("disk",)),
    _Key("geometry.b", "b", _number, lambda f: f["a"], _POSITIVE, only=("square",)),
    _Key("geometry.net", "disk_net", _one_of(("rational", "mapped")), "rational", only=("disk",)),
    _Key("geometry.interior_multiplicity", "interior_multiplicity", _int, 1, only=("square",)),
    _Key("thickness_ratio", "thickness_ratio", _number, bound=_POSITIVE, axis="aspect"),
    _Key("degree", "degree", _int, 3, (lambda v: v >= 2, "at least 2 for the C1 discretization")),
    _Key("elements", "elements", _int, 11, (lambda v: v >= 1, "at least 1"), axis="mesh"),
    _Key("material", None, _object),
    _Key("material.ceramic", "ceramic", _phase),
    _Key("material.metal", "metal", _phase),
    _Key("material.scheme", "scheme", _one_of(Scheme), "rule_of_mixture"),
    _Key("material.profile", "profile", _one_of(Profile), "ceramic_power"),
    _Key("material.power_index", "power_index", _number, 0.0, (lambda v: v >= 0, "nonnegative"),
         axis="n"),
    _Key("shear_model", "shear_model", _one_of(ShearModel), "atan", axis="model"),
    _Key("edge_bcs", "edge_bcs", _edge_bcs, "SSSS"),
    _Key("analysis.modes", "modes", _int, lambda f: 1 if f["analysis"] == "vibrate" else 4,
         (lambda v: v >= 1, "at least 1"), only=("vibrate", "buckle")),
    _Key("load", None, _object, None, only=("static",)),
    _Key("load.type", "load_type", _one_of(("sinusoidal", "uniform"))),
    _Key("load.q0", "q0", _number, 1.0, (lambda v: v != 0, "nonzero: the reports scale by 1/q0")),
    _Key("prestress", "prestress", _prestress, None, only=("buckle",)),
    _Key("report", "report", _one_of(ReportFamily), None),
    _Key("station", "station", _station, None, only=("static",)),
    _Key("profile_samples", "profile_samples", _int, 101, (lambda v: v >= 2, "at least 2"),
         only=("static",)),
    _Key("sweep", None, _object, None),
    _Key("sweep.axis", "sweep_axis", _sweep_axis),
    _Key("sweep.values", "sweep_values", _sweep_values, ()),
)
# each key's section and name in it, each section's key names, and the key
# that each sweep axis varies
_WALK = tuple((*key.path.rpartition(".")[::2], key) for key in _KEYS)
_NAMES: dict[str, tuple] = {}
for _section, _name, _ in _WALK:
    _NAMES[_section] = _NAMES.get(_section, ()) + (_name,)
_SWEPT = {key.axis: key for key in _KEYS if key.axis}


def _sweep_value(key: _Key, value, axis: str):
    """One value of a sweep over axis, read and bounded by the key it varies."""
    value = key.read(value, "sweep.values")
    if key.bound and not key.bound[0](value):
        raise ConfigurationError(f"{axis} sweep values must be {key.bound[1]} for {axis} "
                                 f"({key.path}), got {value!r}")
    return value


def parse_config(doc: dict) -> CaseConfig:
    """Validate a configuration document against _KEYS; every problem raises
    before assembly."""
    objects = {"": _object(doc, "")}    # the sections the document gives, by path
    fields: dict = {}
    stray = []                           # keys given where they do not apply
    for section, name, key in _WALK:
        path, attr, read, default, bound, only, _ = key
        holder = objects.get(section)
        if callable(default):
            default = default(fields)
        if holder is None or only and not key.applies(fields["analysis"], fields["geometry_type"]):
            if holder is not None and holder.get(name) is not None:
                stray.append(key)
            if attr:
                fields.setdefault(attr, None if default is _REQUIRED else default)
            continue
        value = holder.get(name, default)
        if value is _REQUIRED:
            raise ConfigurationError(f"{path} is required")
        if value is not None or default is not None:
            value = read(value, path)
            if bound and not bound[0](value):
                raise ConfigurationError(f"{path} must be {bound[1]}, got {value!r}")
        if attr:
            fields[attr] = value
        elif value is not None:
            objects[path] = value

    analysis, gtype = fields["analysis"], fields["geometry_type"]
    if not 1 <= fields["interior_multiplicity"] <= fields["degree"] - 1:
        raise ConfigurationError("geometry.interior_multiplicity must lie in [1, degree-1]")
    if fields["load_type"] == "sinusoidal" and gtype == "disk":
        raise ConfigurationError("sinusoidal load is defined for square geometry only")
    if analysis == "static" and fields["load_type"] is None:
        raise ConfigurationError("static analysis requires a load")
    if analysis == "buckle" and fields["prestress"] is None:
        raise ConfigurationError(
            "buckling analysis: missing prestress state (in-plane force matrix)"
        )
    if fields["report"] is None:
        fields["report"] = next(f for f in ReportFamily if f.analysis == analysis)
    if fields["report"].analysis != analysis:
        raise ConfigurationError(
            f"report family {fields['report'].value!r} does not apply to {analysis} analysis"
        )
    if fields["station"] is not None:
        _check_station(fields)
    if analysis == "vibrate":
        for name in ("ceramic", "metal"):
            if fields[name].rho == 0.0:
                raise ConfigurationError(
                    f"material.{name} {objects['material'][name]!r} has no density (rho = 0), "
                    "so a vibration has no mass; give a phase object with rho")
    axis = fields["sweep_axis"]
    if axis is not None:
        fields["sweep_values"] = tuple(_sweep_value(_SWEPT[axis], v, axis)
                                       for v in fields["sweep_values"])
        if axis == "mesh" and fields["station"] is not None:
            for elements in fields["sweep_values"]:
                _check_station(dict(fields, elements=elements))
    if stray:
        raise ConfigurationError(f"{stray[0].path} does not apply to a {analysis} case on a "
                                 f"{gtype}; it applies to {' and '.join(stray[0].only)} only")
    return CaseConfig(**fields)


def _check_station(fields: dict) -> None:
    """The station must lie on the plate and, on the mapped disk, inside the
    net's boundary."""
    (x, y), a, b = fields["station"], fields["a"], fields["b"]
    tol = 1e-12 * max(a, b)  # points on the boundary, up to roundoff, lie on the plate
    if fields["geometry_type"] == "square":
        outside = not (-tol <= x <= a + tol and -tol <= y <= b + tol)
        where = f"the square [0, {a:g}] x [0, {b:g}]"
    else:
        outside = math.hypot(x, y) > a + tol
        where = f"the disk r <= {a:g}"
    if outside:
        raise ConfigurationError(f"station ({x:g}, {y:g}) lies outside {where}")
    if fields["geometry_type"] == "disk" and fields["disk_net"] == "mapped":
        # the mapped net's boundary sags inside the circle: by 0.37% of R
        # at 11 cubic elements, by 15% on one quadratic element
        degree, elements = fields["degree"], fields["elements"]
        try:
            locate_point(make_mapped_disk_patch(a, degree, elements), x, y)
        except GeometryError:
            raise ConfigurationError(
                f"station ({x:g}, {y:g}) lies outside the mapped net, whose boundary "
                f"sags inside the circle r = {a:g} with {elements} elements of degree "
                f'{degree}; use "net": "rational" for the exact circle') from None


# ---------------------------------------------------------------------------
# benchmark presets
# ---------------------------------------------------------------------------

def _square_material(ceramic: str, metal: str, scheme: str, n: float) -> dict:
    return {"ceramic": ceramic, "metal": metal, "scheme": scheme,
            "profile": "ceramic_power", "power_index": n}


def _preset(geometry: dict, ratio: float, material: dict, shear: str, edge_bcs: str,
            analysis: dict, report: str, **rest) -> dict:
    """A case on the 11 x 11 cubic mesh; rest holds load, prestress or sweep."""
    return {"geometry": geometry, "thickness_ratio": ratio, "degree": 3, "elements": 11,
            "material": material, "shear_model": shear, "edge_bcs": edge_bcs,
            "analysis": analysis, "report": report, **rest}


def _unit_square() -> dict:
    return {"type": "square", "a": 1.0, "b": 1.0}


def _bend_sin_preset(shear: str, n: float, ratio: float) -> dict:
    # the C1 (doubled-knot) space reproduces the published center-stress
    # evaluation accuracy; deflections are insensitive to the choice
    return _preset(dict(_unit_square(), interior_multiplicity=2), ratio,
                   _square_material("Al2O3", "Al", "rule_of_mixture", n), shear, "SSSS",
                   {"type": "static"}, "bending_ec", load={"type": "sinusoidal", "q0": 1.0})


def _bend_uni_preset(shear: str, bcs: str, ceramic: str, metal: str, n: float) -> dict:
    return _preset(_unit_square(), 5.0, _square_material(ceramic, metal, "mori_tanaka", n),
                   shear, bcs, {"type": "static"}, "bending_dm",
                   load={"type": "uniform", "q0": 1.0})


def _vib_preset(shear: str, n: float, ratio: float, modes: int) -> dict:
    return _preset(_unit_square(), ratio, _square_material("ZrO2-1", "Al", "mori_tanaka", n),
                   shear, "SSSS", {"type": "vibrate", "modes": modes}, "frequency")


def _buckle_preset(shear: str, n: float, hr: float) -> dict:
    material = {"ceramic": "ZrO2-2", "metal": "Al", "scheme": "rule_of_mixture",
                "profile": "metal_power", "power_index": n}
    return _preset({"type": "disk", "radius": 0.5, "net": "mapped"}, hr, material, shear, "CCCC",
                   {"type": "buckle", "modes": 4}, "buckling_dm",
                   prestress=[[-1.0, 0.0], [0.0, -1.0]])


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
    presets["converge-mesh"] = _preset(
        _unit_square(), 10.0, _square_material("SiC", "Al", "rule_of_mixture", 1.0), "cubic",
        "SSSS", {"type": "static"}, "bending_ec", load={"type": "sinusoidal", "q0": 1.0},
        sweep={"axis": "mesh", "values": [5, 9, 13, 17, 21, 25]})

    # thin-limit (locking) study on an isotropic plate
    presets["locking-aspect"] = _preset(
        _unit_square(), 10.0, _square_material("Al", "Al", "rule_of_mixture", 0.0), "atan",
        "SSSS", {"type": "static"}, "bending_cpt", load={"type": "uniform", "q0": 1.0},
        sweep={"axis": "aspect", "values": [10.0, 100.0, 1000.0, 1e4, 1e5, 1e6]})

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
