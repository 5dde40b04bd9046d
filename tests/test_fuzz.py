"""Seeded configuration fuzz of the CLI.

Each seed draws one configuration with random.Random(seed) over the whole
input space: squares and both disk nets, degrees 2-4 on 1-6 elements, a/h
from 3 to 1e6 and h/R from 1e-4 to 0.3 (both log-uniform), all 81 edge
codes, all six shear models, both schemes and profiles, the four ceramics
with Al, seven power indices, all three analyses and four prestress states.
About one draw in ten misspells a key or gives one that does not apply.
Every draw goes through `fgplate run` and must keep the CLI's contract:

- the exit code is 0, 2 or 3, and a failed run writes no results.csv;
- exit 0 writes only finite numbers, a nonzero w_bar for a static case,
  frequencies >= 0 and ascending, buckling factors > 0 and ascending;
- exit 2 says "configuration error:", and every bad draw exits 2;
- exit 3 says "solver error:" and names the failing quantity with one of
  the library's phrases in SOLVER_PHRASES.

The contract cannot see a finite wrong answer; the oracles and the
acceptance goldens do.
"""
import json
import math
import random

from fgplate.cli import main

SEEDS = range(1000, 1300)
CERAMICS = ("Al2O3", "ZrO2-1", "ZrO2-2", "SiC")
POWER_INDICES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 1000.0)
SHEAR_MODELS = ("cubic", "exponential", "sinusoidal", "quintic", "atan", "atan_sin")
PRESTRESS = {
    "uniaxial": [[-1.0, 0.0], [0.0, 0.0]],
    "biaxial": [[-1.0, 0.0], [0.0, -1.0]],
    "shear": [[0.0, 1.0], [1.0, 0.0]],
    "tension": [[1.0, 0.0], [0.0, 1.0]],
}
# what the library says when it cannot solve a configuration: each phrase
# names the quantity or the mechanism that fails
SOLVER_PHRASES = (
    "no positive buckling factor",
    "no free deflection DOF",
    "static solve stalled",
    "can rotate rigidly",
    "free on every edge",
    "mass matrix",
    "not positive definite",
)


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# keys that apply only where the last entry says: (section, name, value, where)
STRAY = (
    ("", "station", [0.0, 0.0], ("static",)),
    ("", "profile_samples", 11, ("static",)),
    ("", "load", {"type": "uniform"}, ("static",)),
    ("", "prestress", PRESTRESS["biaxial"], ("buckle",)),
    ("analysis", "modes", 2, ("vibrate", "buckle")),
    ("geometry", "radius", 0.5, ("disk",)),
    ("geometry", "net", "mapped", ("disk",)),
    ("geometry", "a", 1.0, ("square",)),
)


def _spoil(rng, doc, analysis):
    """Misspell one key of doc, or give it a key that does not apply."""
    if rng.random() < 0.5:
        section = rng.choice([doc] + [v for v in doc.values() if isinstance(v, dict)])
        name = rng.choice(sorted(section))
        cut = rng.randrange(len(name))
        section[name[:cut] + name[cut + 1:]] = section.pop(name)
        return
    case = {analysis, doc["geometry"]["type"]}
    section, name, value, _ = rng.choice([key for key in STRAY if not case & set(key[3])])
    (doc[section] if section else doc)[name] = value


def draw(seed):
    """One configuration document, its analysis and whether it was spoiled
    on purpose."""
    rng = random.Random(seed)
    analysis = rng.choice(("static", "vibrate", "buckle"))
    net = rng.choice(("square", "rational", "mapped"))
    if net == "square":
        geometry, ratio = {"type": "square", "a": 1.0}, _log_uniform(rng, 3.0, 1e6)
    else:
        geometry, ratio = {"type": "disk", "radius": 0.5, "net": net}, _log_uniform(rng, 1e-4, 0.3)
    doc = {
        "analysis": {"type": analysis},
        "geometry": geometry,
        "thickness_ratio": ratio,
        "degree": rng.randint(2, 4),
        "elements": rng.randint(1, 6),
        "material": {"ceramic": rng.choice(CERAMICS), "metal": "Al",
                     "scheme": rng.choice(("rule_of_mixture", "mori_tanaka")),
                     "profile": rng.choice(("ceramic_power", "metal_power")),
                     "power_index": rng.choice(POWER_INDICES)},
        "shear_model": rng.choice(SHEAR_MODELS),
        "edge_bcs": "".join(rng.choice("SCF") for _ in range(4)),
    }
    if analysis == "static":
        kinds = ("sinusoidal", "uniform") if net == "square" else ("uniform",)
        doc["load"] = {"type": rng.choice(kinds), "q0": 1.0}
    else:
        doc["analysis"]["modes"] = rng.randint(1, 6)
    if analysis == "buckle":
        doc["prestress"] = PRESTRESS[rng.choice(sorted(PRESTRESS))]
    spoiled = rng.random() < 0.1
    if spoiled:
        _spoil(rng, doc, analysis)
    return doc, analysis, spoiled


def _contract_breach(code, err, out, analysis, spoiled):
    """What the run broke of the contract, or None."""
    csv = out / "results.csv"
    if code not in (0, 2, 3):
        return f"exit {code}"
    if code != 0:
        if csv.exists():
            return f"exit {code} wrote results.csv"
        if code == 2:
            return None if err.startswith("configuration error:") else f"exit 2 says {err!r}"
        if spoiled:
            return f"a spoiled configuration exits 3: {err!r}"
        if not err.startswith("solver error:") or not any(p in err for p in SOLVER_PHRASES):
            return f"exit 3 names no known failing quantity: {err!r}"
        return None
    if spoiled:
        return "a spoiled configuration exits 0"
    header, *lines = csv.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines]
    if not rows or not all(math.isfinite(v) for row in rows for v in row):
        return f"results.csv holds {lines!r}"
    if analysis == "static":
        # a static case that cannot deflect exits 3; one that solves deflects
        return None if rows[0][0] != 0.0 else f"{header} reads {lines!r}"
    values = [row[1] for row in rows]
    if values != sorted(values):
        return f"{header} not ascending: {values}"
    if values[0] < 0.0 or analysis == "buckle" and values[0] == 0.0:
        return f"{header} starts at {values[0]}"
    return None


def test_cli_contract_on_drawn_configurations(tmp_path, capsys):
    breaches, solved = [], set()
    for seed in SEEDS:
        doc, analysis, spoiled = draw(seed)
        path, out = tmp_path / f"{seed}.json", tmp_path / str(seed)
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            code = main(["run", "--config", str(path), "--out", str(out)])
        except Exception as exc:  # an escaped exception breaks the contract
            breaches.append(f"seed {seed}: raised {exc!r}")
            continue
        breach = _contract_breach(code, capsys.readouterr().err, out, analysis, spoiled)
        if breach:
            breaches.append(f"seed {seed}: {breach}")
        elif code == 0:
            solved.add(analysis)
    assert not breaches, "\n".join(breaches)
    # the draw reaches the solvers of all three analyses
    assert solved == {"static", "vibrate", "buckle"}
