"""Metamorphic relations on the square: the same plate described two ways
gives the same report (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51, 2018).

Each seed draws one rectangle with a != b and, beside it, the square with
b = a, like the fuzz draws a case: degree 2-4 on 2-5 elements, repeated
interior knots on some cubic and quartic draws, a/h log-uniform from 3 to
1e3, all 81 edge codes, every shear model, scheme and profile, and all
three analyses. The relations:

- mirror x -> a - x: the two u edges swap, and a shear prestress changes
  sign;
- joint scaling: a and b grow by 3 at a fixed a/h;
- reflection in the diagonal of the square: the u-edge pair swaps with the
  v-edge pair and Nx with Ny. sigma_x becomes sigma_y there, so a static
  case compares w_bar only.

The mirror compares w_bar only where the station, the centre, lies on a
knot at which the space is only C1 (an even element count, and degree 2
or repeated knots): sigma_x there is the one-sided value of the span to
the right of the knot, and the mirror reads the span on the left.

The reports must agree within a relative 1e-10; 60 draws agree within
3.3e-13. A base draw whose solve fails (exit 3) must fail on the related
plate too; two of the draws do. The draw stops at a/h = 1e3: thinner
plates with a free edge stall at the float64 floor of the static
contract, which test_solvers pins on its own.

On both disk nets, a reflection of the plane maps the edges onto each
other: y -> -y swaps the two v edges (CCSF and CCFS), and the point
reflection swaps both pairs (CSFC and SCCF; CSCS and SCSC, on the
rational net only, since the mapped net refuses a simply supported
corner). Each relation runs as a uniformly loaded static case, a
vibration case and a biaxially compressed buckling case, drawn like the
squares at degree 2-3 on 3-5 elements, n from 0.5 to 2 and h/R from 0.05
to 0.2. The centre station lies on a knot where the space is only C1 on
an even number of quadratic elements, so those static draws compare w_bar
only, as the mirror does on the squares. No pair has a free-free corner,
where the rational net's static solves stall (see test_solvers).

Two relations change the model, not the description, where theory says
the answer must not change:

- at n = 0 the plate is one phase, so Mori-Tanaka and the rule of
  mixtures give the same properties: drawn like the rectangles, the two
  schemes agree within the same 1e-10 (12 draws, worst 4.8e-14; one
  draw fails on both);
- at a/h = 1e4 a simply supported square is a Kirchhoff plate, where the
  six shear models differ only at order (h/a)^2 = 1e-8: uniformly or
  sinusoidally loaded and vibrating squares agree within 1e-7 (12 draws,
  worst 4.7e-9).
"""
import math
import random

import pytest

from fgplate.cases import run_case
from fgplate.config import parse_config
from fgplate.errors import ConfigurationError, FGPlateError

SEEDS = range(60)
RTOL = 1e-10
PRESTRESS = ([[-1.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, -0.5]], [[-0.2, 1.0], [1.0, -0.3]])


def draw(seed):
    """The rectangle and the square of a seed, as configuration documents."""
    rng = random.Random(seed)
    analysis = rng.choice(("static", "vibrate", "buckle"))
    degree = rng.randint(2, 4)
    a = rng.uniform(0.5, 2.0)
    doc = {
        "analysis": {"type": analysis},
        "geometry": {"type": "square", "a": a, "b": a * rng.choice((0.4, 0.7, 1.5, 2.5)),
                     "interior_multiplicity": rng.randint(1, degree - 1)},
        "thickness_ratio": 10.0 ** rng.uniform(math.log10(3.0), 3.0),
        "degree": degree,
        "elements": rng.randint(2, 5),
        "material": {"ceramic": rng.choice(("Al2O3", "ZrO2-1", "ZrO2-2")), "metal": "Al",
                     "scheme": rng.choice(("rule_of_mixture", "mori_tanaka")),
                     "profile": rng.choice(("ceramic_power", "metal_power")),
                     "power_index": rng.choice((0.0, 0.5, 2.0, 10.0))},
        "shear_model": rng.choice(("cubic", "exponential", "sinusoidal", "quintic", "atan",
                                   "atan_sin")),
        "edge_bcs": "".join(rng.choice("SCF") for _ in range(4)),
    }
    if analysis == "static":
        doc["load"] = {"type": rng.choice(("sinusoidal", "uniform")), "q0": 1.0}
    else:
        doc["analysis"]["modes"] = rng.randint(1, 4)
    if analysis == "buckle":
        doc["prestress"] = rng.choice(PRESTRESS)
    return doc, dict(doc, geometry=dict(doc["geometry"], b=a))


def mirrored(doc):
    bcs = doc["edge_bcs"]
    out = dict(doc, edge_bcs=bcs[1] + bcs[0] + bcs[2:])
    if "prestress" in doc:
        (nx, nxy), (_, ny) = doc["prestress"]
        out["prestress"] = [[nx, -nxy], [-nxy, ny]]
    return out


def scaled(doc):
    geometry = doc["geometry"]
    return dict(doc, geometry=dict(geometry, a=3.0 * geometry["a"], b=3.0 * geometry["b"]))


def reflected(doc):
    bcs = doc["edge_bcs"]
    out = dict(doc, edge_bcs=bcs[2:] + bcs[:2])
    if "prestress" in doc:
        (nx, nxy), (_, ny) = doc["prestress"]
        out["prestress"] = [[ny, nxy], [nxy, nx]]
    return out


def solve(doc):
    """The report values of a document, or "exit 3" where the solve fails."""
    config = parse_config(doc)
    try:
        return run_case(config).report.values
    except ConfigurationError:
        raise
    except FGPlateError:
        return "exit 3"


def breach(name, base, other, w_only=False):
    if base == "exit 3" or other == "exit 3":
        return None if base == other else f"{name}: {base!r} against {other!r}"
    if w_only:
        base, other = base[:1], other[:1]
    if len(base) != len(other):
        return f"{name}: {len(base)} values against {len(other)}"
    worst = max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(base, other))
    return None if worst <= RTOL else f"{name}: relative gap {worst:.2e} in {base} vs {other}"


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_hold_on_drawn_rectangles_and_squares(seed):
    rectangle, square = draw(seed)
    static = rectangle["analysis"]["type"] == "static"
    one_sided = static and rectangle["elements"] % 2 == 0 \
        and rectangle["degree"] - rectangle["geometry"]["interior_multiplicity"] < 2
    base = solve(rectangle)
    breaches = [breach("mirror", base, solve(mirrored(rectangle)), w_only=one_sided),
                breach("scaling", base, solve(scaled(rectangle))),
                breach("diagonal", solve(square), solve(reflected(square)), w_only=static)]
    assert not any(breaches), "\n".join(filter(None, breaches))


DISK_RELATIONS = [("CCSF", "CCFS", "rational"), ("CCSF", "CCFS", "mapped"),
                  ("CSFC", "SCCF", "rational"), ("CSFC", "SCCF", "mapped"),
                  ("CSCS", "SCSC", "rational")]


def draw_disk(analysis, bcs, net):
    """A disk with the given analysis, edge codes and net, drawn from a seed
    that names them."""
    rng = random.Random(f"{bcs}-{net}-{analysis}")
    doc = {
        "analysis": {"type": analysis},
        "geometry": {"type": "disk", "radius": rng.uniform(0.5, 2.0), "net": net},
        "thickness_ratio": rng.uniform(0.05, 0.2),
        "degree": rng.randint(2, 3),
        "elements": rng.randint(3, 5),
        "material": {"ceramic": rng.choice(("Al2O3", "ZrO2-1")), "metal": "Al",
                     "power_index": rng.uniform(0.5, 2.0)},
        "shear_model": rng.choice(("cubic", "atan", "sinusoidal")),
        "edge_bcs": bcs,
    }
    if analysis == "static":
        doc["load"] = {"type": "uniform", "q0": 1.0}
    else:
        doc["analysis"]["modes"] = rng.randint(1, 3)
    if analysis == "buckle":
        doc["prestress"] = [[-1.0, 0.0], [0.0, -1.0]]
    return doc


@pytest.mark.parametrize("analysis", ["static", "vibrate", "buckle"])
@pytest.mark.parametrize("bcs, mirrored_bcs, net", DISK_RELATIONS)
def test_disk_mirror_relations(bcs, mirrored_bcs, net, analysis):
    base = draw_disk(analysis, bcs, net)
    one_sided = analysis == "static" and base["degree"] == 2 and base["elements"] % 2 == 0
    found = breach(f"{bcs} against {mirrored_bcs} on the {net} net", solve(base),
                   solve(dict(base, edge_bcs=mirrored_bcs)), w_only=one_sided)
    assert found is None, found


def draw_variant(seed, analysis):
    """A square drawn like the rectangles, with the given analysis."""
    rng = random.Random(f"variant-{seed}")
    degree = rng.randint(2, 4)
    doc = {
        "analysis": {"type": analysis},
        "geometry": {"type": "square", "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.5, 2.0)},
        "thickness_ratio": 10.0 ** rng.uniform(math.log10(3.0), 3.0),
        "degree": degree,
        "elements": rng.randint(2, 5),
        "material": {"ceramic": rng.choice(("Al2O3", "ZrO2-1", "ZrO2-2")), "metal": "Al",
                     "profile": rng.choice(("ceramic_power", "metal_power")),
                     "power_index": rng.choice((0.5, 2.0, 10.0))},
        "shear_model": rng.choice(SHEAR_MODELS),
        "edge_bcs": "".join(rng.choice("SCF") for _ in range(4)),
    }
    if analysis == "static":
        doc["load"] = {"type": rng.choice(("sinusoidal", "uniform")), "q0": 1.0}
    else:
        doc["analysis"]["modes"] = rng.randint(1, 4)
    if analysis == "buckle":
        doc["prestress"] = rng.choice(PRESTRESS)
    return doc


SHEAR_MODELS = ("cubic", "exponential", "sinusoidal", "quintic", "atan", "atan_sin")
VARIANT_SEEDS = range(12)
THIN_RTOL = 1e-7


@pytest.mark.parametrize("seed", VARIANT_SEEDS)
def test_one_phase_plate_is_the_same_under_both_schemes(seed):
    doc = draw_variant(seed, ("static", "vibrate", "buckle")[seed % 3])
    doc["material"]["power_index"] = 0.0
    schemes = [solve(dict(doc, material=dict(doc["material"], scheme=scheme)))
               for scheme in ("rule_of_mixture", "mori_tanaka")]
    found = breach("Mori-Tanaka against the rule of mixtures at n = 0", *schemes)
    assert found is None, found


@pytest.mark.parametrize("seed", VARIANT_SEEDS)
def test_shear_models_agree_on_a_thin_simply_supported_square(seed):
    doc = draw_variant(seed, ("static", "vibrate")[seed % 2])
    doc.update(thickness_ratio=1e4, edge_bcs="SSSS")
    doc["geometry"]["b"] = doc["geometry"]["a"]
    base, *others = [solve(dict(doc, shear_model=model)) for model in SHEAR_MODELS]
    failed = [model for model, values in zip(SHEAR_MODELS, [base, *others]) if values == "exit 3"]
    assert not failed, f"the solve fails under {failed}"
    for model, other in zip(SHEAR_MODELS[1:], others):
        assert len(other) == len(base), model
        worst = max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(base, other))
        assert worst <= THIN_RTOL, f"{SHEAR_MODELS[0]} against {model}: relative gap {worst:.2e}"


def test_the_draws_reach_every_analysis_and_repeated_knots():
    docs = [draw(seed)[0] for seed in SEEDS]
    assert {doc["analysis"]["type"] for doc in docs} == {"static", "vibrate", "buckle"}
    assert any(doc["geometry"]["interior_multiplicity"] > 1 for doc in docs)
