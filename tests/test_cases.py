"""Sweeps: a sweep reports exactly what independent run_case calls on
separately parsed documents report. A sweep over n, the thickness ratio or
the shear model builds one patch and with it one Gram and one load vector; a
mesh sweep builds one of each per value."""
import pytest

import fgplate as fg
from fgplate import nurbs
from fgplate.config import _SWEPT, CaseConfig, parse_config


def base_doc(analysis):
    """A small case per analysis on a 3x3 cubic square."""
    doc = {
        "geometry": {"type": "square", "a": 1.0, "b": 1.0},
        "thickness_ratio": 10.0,
        "degree": 3,
        "elements": 3,
        "material": {"ceramic": "Al2O3", "metal": "Al", "scheme": "rule_of_mixture",
                     "profile": "ceramic_power", "power_index": 1.0},
        "shear_model": "atan",
        "edge_bcs": "SSSS",
        "analysis": {"type": analysis},
    }
    if analysis != "static":
        doc["analysis"]["modes"] = 2
    if analysis == "static":
        doc.update(load={"type": "uniform", "q0": 1.0}, report="bending_ec")
    elif analysis == "buckle":
        doc.update(prestress=[[-1.0, 0.0], [0.0, -1.0]])
    return doc


SWEEPS = {"n": [0.0, 0.5, 2.0, 6.5], "aspect": [5.0, 20.0], "mesh": [2, 3],
          "model": ["cubic", "atan_sin"]}


def at_path(doc, path, value):
    """A copy of doc with value written at the dotted key path."""
    section, _, leaf = path.rpartition(".")
    if not section:
        return dict(doc, **{leaf: value})
    return dict(doc, **{section: dict(doc[section], **{leaf: value})})


@pytest.mark.parametrize("axis", sorted(SWEEPS))
@pytest.mark.parametrize("analysis", ["static", "vibrate", "buckle"])
def test_sweep_reports_equal_independent_runs(analysis, axis):
    # each independent run parses its own document, with the sweep value
    # written at the path of the key the axis varies
    values, doc = SWEEPS[axis], base_doc(analysis)
    sweep = fg.sweep_case(parse_config(dict(doc, sweep={"axis": axis, "values": values})))
    assert len(sweep.reports) == len(values)
    for value, report in zip(values, sweep.reports):
        single = fg.run_case(parse_config(at_path(doc, _SWEPT[axis].path, value)))
        assert report.values == single.report.values


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("axis,values,patches", [
    ("n", [0.5, 2.0, 6.5], [3]),
    ("mesh", [2, 3, 4], [2, 3, 4]),
])
def test_geometry_pass_runs_once_per_patch(monkeypatch, axis, values, patches):
    """patches lists the element count of each patch the sweep should build."""
    built = count_calls(monkeypatch, CaseConfig, "build_patch")
    grams = count_calls(monkeypatch, nurbs, "_GlobalGram")
    loads = count_calls(monkeypatch, nurbs, "_assemble_load")
    fg.sweep_case(parse_config(dict(base_doc("static"), sweep={"axis": axis, "values": values})))
    assert len(built) == len(patches)
    # the patch of each Gram and load pass, by its element count
    for calls in (grams, loads):
        assert [len(args[0].knot_u.spans()) for args in calls] == patches
