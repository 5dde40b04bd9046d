"""Workload definitions, seeded op generation and the correctness gate.

Every workload draws its ops from finite pools whose reference results were
recorded once from the library by ``record.py`` and frozen under ``ref/``.
The seed picks and orders pool entries, so each seed gives a different op
list whose every result can still be checked. The library only ever sees the
generated configuration documents and stations.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"
WORKLOADS = ("table-11", "fine-mesh", "station-map")
TOLERANCE = 1e-8            # relative; results may move at roundoff level only
LIST_ROUNDS = {"table-11": 1, "fine-mesh": 1, "station-map": 50}  # rounds in a run's op list
SHEARS = ("atan", "atan_sin")
N_GRID = (0.2, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0)

DISK_NETS = ("rational", "mapped")
STATION_POOL = 1000         # stations shared by both disk nets
STATION_POOL_SEED = 1847
STATION_RADIUS = 0.98       # stations lie at r <= 0.98 R
PROFILE_POINTS = 5          # through-thickness samples per stress profile
FAILING_STATIONS = 2        # per op list, from the stations the library fails on


@dataclass(frozen=True)
class Slot:
    """One op group of every round.

    A base case is drawn from ``sources`` (base name -> preset name and
    document overrides). With ``sweep`` > 0 it runs through ``sweep_case`` at
    that many distinct seeded power indices from ``n_values``; with ``sweep``
    0 it runs once through ``run_case``, at a seeded index from ``n_values``
    or, when that is empty, at the preset's own index.
    """

    sources: dict
    n_values: tuple = N_GRID
    sweep: int = 0


SLOTS = {
    # the paper's 11x11 cubic presets (784 DOFs); assembly dominates and a
    # sweep changes only the section constants
    "table-11": (
        Slot({f"vib-{s}-r5": (f"vib-{s}-n1-r5", {}) for s in SHEARS}, sweep=3),
        Slot({f"vib10-{s}-r{r}": (f"vib10-{s}-n1-r{r}", {})
              for s in SHEARS for r in (5, 10, 20)}, sweep=3),
        Slot({f"buck-disk-{s}-hr{hr}": (f"buck-disk-{s}-n0-hr{hr}", {})
              for s in SHEARS for hr in ("0.1", "0.2", "0.25", "0.3")}, sweep=3),
        # the graded SSFF presets are left out: their stiffness is singular
        # (no support fixes u0), so whether a solve fails depends on roundoff
        Slot({f"bend-uni-{bc}-{s}": (f"bend-uni-{bc}-n1-{s}", {})
              for bc in ("ssss", "cccc") for s in SHEARS}, sweep=3),
    ),
    # h-refined cases where the dense solvers grow as n^3; every size runs
    # once per round so the cost of a round does not depend on the seed
    "fine-mesh": (
        Slot({"converge-mesh-e25": ("converge-mesh", {"elements": 25})}),
        Slot({"buck-disk-atan-hr0.1-e15": ("buck-disk-atan-n0-hr0.1", {"elements": 15})}),
        Slot({"buck-disk-atan-hr0.1-e21": ("buck-disk-atan-n0-hr0.1", {"elements": 21})}),
        Slot({f"bend-sin-{s}-n{n}-r100": (f"bend-sin-{s}-n{n}-r100", {})
              for s in ("cubic", "atan", "atan_sin") for n in (1, 4, 10)}, n_values=()),
    ),
}


def disk_document(net: str) -> dict:
    """Clamped FG disk under uniform load, solved once per net in set-up."""
    return {
        "geometry": {"type": "disk", "radius": 0.5, "net": net},
        "thickness_ratio": 0.1,
        "degree": 3,
        "elements": 11,
        "material": {"ceramic": "ZrO2-2", "metal": "Al", "scheme": "rule_of_mixture",
                     "profile": "metal_power", "power_index": 1.0},
        "shear_model": "atan",
        "edge_bcs": "CCCC",
        "load": {"type": "uniform", "q0": 1.0},
        "analysis": {"type": "static"},
        "report": "bending_dm",
    }


def n_key(n: float) -> str:
    return repr(float(n))


def report_values(report) -> list[float]:
    """Every number a case report carries, in a fixed order."""
    scalars = [v for v in (report.w_bar, report.sigma_x_bar) if v is not None]
    return [float(v) for v in (*scalars, *report.omega_bar, *report.p_cr_bar)]


def station_values(field, profile) -> list[float]:
    """(u0, v0, wb, ws, w) followed by the five stress components per z sample."""
    parts = (profile.sigma_x, profile.sigma_y, profile.tau_xy, profile.tau_xz, profile.tau_yz)
    return [float(v) for v in field] + [float(v) for part in parts for v in part]


def matches(values, expected, floor=0.0) -> bool:
    """True when every value lies within TOLERANCE of its reference.

    The error of each entry is taken relative to its reference magnitude, or
    to ``floor`` where that is larger, so entries that vanish by symmetry do
    not demand an exact zero.
    """
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if values.shape != expected.shape or not np.all(np.isfinite(values)):
        return False
    scale = np.maximum(np.abs(expected), floor)
    return bool(np.all(np.abs(values - expected) <= TOLERANCE * scale))


@dataclass(frozen=True)
class CaseTask:
    """One sweep_case call (``sweep``) or one run_case call on a parsed config."""

    base: str
    n: tuple
    config: object
    sweep: bool

    @property
    def ops(self) -> int:
        return len(self.n)

    def describe(self):
        return {"base": self.base, "n": list(self.n)}


@dataclass(frozen=True)
class StationTask:
    """Field and stress recovery at one pool station of one disk net."""

    net: int
    index: int

    def describe(self):
        return [DISK_NETS[self.net], self.index]


@dataclass
class Plan:
    """Everything a workload needs before its first op: parsed inputs,
    solved disks and the reference results the gate compares against."""

    rounds: list
    expected: dict
    stations: np.ndarray = None
    disks: list = None          # per net: (model, q, z samples)
    floors: np.ndarray = None   # per net: gate floor for each station value


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def load_reference(workload: str):
    if workload == "station-map":
        with np.load(REF_DIR / "station-map.npz") as data:
            return {key: data[key] for key in data.files}
    return json.loads((REF_DIR / f"{workload}.json").read_text())


def build_plan(workload: str, seed: int, fg) -> Plan:
    """Generate the seeded op list and do all set-up the first op needs.

    ``fg`` is the imported fgplate package. For station-map this solves one
    clamped disk per net, which the stations are then read from.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")
    rng = _rng(workload, seed)
    ref = load_reference(workload)
    if workload == "station-map":
        return _station_plan(workload, rng, ref, fg)

    rounds = []
    for _ in range(LIST_ROUNDS[workload]):
        tasks = []
        for slot in SLOTS[workload]:
            names = sorted(slot.sources)
            base = names[rng.integers(len(names))]
            doc = copy.deepcopy(ref["documents"][base])
            if slot.n_values:
                picks = rng.choice(len(slot.n_values), size=max(slot.sweep, 1), replace=False)
                ns = tuple(slot.n_values[i] for i in picks)
            else:
                ns = (float(doc["material"]["power_index"]),)
            if slot.sweep:
                doc["sweep"] = {"axis": "n", "values": list(ns)}
            else:
                doc["material"]["power_index"] = ns[0]
            tasks.append(CaseTask(base, ns, fg.parse_config(doc), bool(slot.sweep)))
        rounds.append(tasks)
    return Plan(rounds, ref["results"])


def _station_plan(workload, rng, ref, fg) -> Plan:
    disks = []
    for net in DISK_NETS:
        result = fg.cases.run_case(fg.parse_config(disk_document(net)))
        h = result.model.section.h
        disks.append((result.model, result.q, np.linspace(-h / 2.0, h / 2.0, PROFILE_POINTS)))
    # a fixed number of the stations where the library's locate_point fails,
    # so every run shows the defect at the same rate and the rest of the
    # list stays a uniform draw
    failing = np.flatnonzero(ref["seed_failed"].any(axis=0))
    others = np.setdiff1d(np.arange(STATION_POOL), failing)
    picks = np.concatenate([rng.choice(failing, FAILING_STATIONS, replace=False),
                            rng.choice(others, LIST_ROUNDS[workload] - FAILING_STATIONS,
                                       replace=False)])
    rng.shuffle(picks)
    rounds = [[StationTask(k, int(i)) for k in range(len(DISK_NETS))] for i in picks]
    values = ref["values"]
    floors = 1e-6 * np.abs(values).max(axis=1)
    return Plan(rounds, values, stations=ref["stations"], disks=disks, floors=floors)


def run_task(plan: Plan, task, fg) -> list[str]:
    """Run one task; one status per op: "ok", "wrong" or "raised".

    Only the library's own FGPlateError counts as a failed op; any other
    exception is a defect of the benchmark or the program and propagates.
    """
    if isinstance(task, StationTask):
        model, q, z = plan.disks[task.net]
        x, y = plan.stations[task.index]
        try:
            field = fg.postprocess.field_at(q, model, x, y)
            profile = fg.postprocess.stress_profile(q, model, x, y, z)
        except fg.FGPlateError:
            return ["raised"]
        ok = matches(station_values(field, profile), plan.expected[task.net, task.index],
                     plan.floors[task.net])
        return ["ok" if ok else "wrong"]

    try:
        if task.sweep:
            reports = fg.cases.sweep_case(task.config).reports
        else:
            reports = (fg.cases.run_case(task.config).report,)
    except fg.FGPlateError:
        return ["raised"] * task.ops
    expected = plan.expected[task.base]
    return ["ok" if matches(report_values(r), expected[n_key(n)]) else "wrong"
            for r, n in zip(reports, task.n)]
