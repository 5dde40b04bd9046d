"""Record the reference results the benchmark's correctness gate uses.

    python3 perfbench/record.py [table-11 fine-mesh station-map]

Run this only on the commit whose results are the reference: recording
again after a change to the program would hide any change in its results.
It freezes the input documents (copied from the library's presets), solves
every case of every pool, and writes ``ref/<workload>.json`` or
``ref/station-map.npz``.

Stations where the library's own ``locate_point`` fails still get reference
values: they are located by a damped Newton iteration from a dense start
grid and then evaluated by the library's ``field_at`` and ``stress_profile``,
so that a later fix of the inverse map is checked, not just counted.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fgplate  # noqa: E402
from fgplate import nurbs, postprocess  # noqa: E402

import workloads as W  # noqa: E402


def _case_reference(workload: str) -> dict:
    documents, results = {}, {}
    for slot in W.SLOTS[workload]:
        for base, (preset, overrides) in sorted(slot.sources.items()):
            doc = copy.deepcopy(fgplate.PRESETS[preset])
            doc.pop("sweep", None)
            doc.update(overrides)
            documents[base] = doc
            ns = slot.n_values or (float(doc["material"]["power_index"]),)
            if slot.sweep:
                swept = dict(doc, sweep={"axis": "n", "values": list(ns)})
                reports = fgplate.sweep_case(fgplate.parse_config(swept)).reports
            else:
                reports = [fgplate.run_case(fgplate.parse_config(
                    dict(doc, material=dict(doc["material"], power_index=n)))).report
                    for n in ns]
            results[base] = {W.n_key(n): W.report_values(r) for n, r in zip(ns, reports)}
            print(f"{workload}: {base} ({len(ns)} cases)", flush=True)
    return {"tolerance": W.TOLERANCE, "documents": documents, "results": results}


def robust_locate(patch, x: float, y: float) -> tuple[float, float]:
    """Inverse geometry map by damped Newton with backtracking."""
    target = np.array([x, y])
    scale = max(np.abs(patch.net.points).max(), 1e-30)
    grid = np.linspace(0.0, 1.0, 41)
    starts = [(u, v) for u in grid for v in grid]
    dist = [np.sum((nurbs.evaluate_point(patch, u, v) - target) ** 2) for u, v in starts]
    uv = np.array(starts[int(np.argmin(dist))])
    res = nurbs.evaluate_point(patch, *uv) - target
    for _ in range(200):
        if np.linalg.norm(res) <= 1e-13 * scale:
            return float(uv[0]), float(uv[1])
        active, _, dR, _ = nurbs.surface_basis(patch, uv[0], uv[1])
        jac = dR.T @ patch.net.points.reshape(-1, 2, order="F")[active]
        step = np.linalg.solve(jac.T, res)
        t = 1.0
        while True:
            trial = np.clip(uv - t * step, 0.0, 1.0)
            trial_res = nurbs.evaluate_point(patch, *trial) - target
            if np.linalg.norm(trial_res) < np.linalg.norm(res) or t < 1e-8:
                break
            t *= 0.5
        uv, res = trial, trial_res
    raise RuntimeError(f"reference inverse map failed at ({x}, {y})")


def _station_reference() -> dict:
    rng = np.random.default_rng(W.STATION_POOL_SEED)
    radius = W.disk_document("rational")["geometry"]["radius"]
    r = W.STATION_RADIUS * radius * np.sqrt(rng.random(W.STATION_POOL))
    theta = 2.0 * np.pi * rng.random(W.STATION_POOL)
    stations = np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    width = 5 + 5 * W.PROFILE_POINTS
    values = np.empty((len(W.DISK_NETS), W.STATION_POOL, width))
    seed_failed = np.zeros((len(W.DISK_NETS), W.STATION_POOL), dtype=bool)
    library_locate = postprocess.locate_point
    for k, net in enumerate(W.DISK_NETS):
        result = fgplate.run_case(fgplate.parse_config(W.disk_document(net)))
        model, q = result.model, result.q
        h = model.section.h
        z = np.linspace(-h / 2.0, h / 2.0, W.PROFILE_POINTS)
        for i, (x, y) in enumerate(stations):
            try:
                field = postprocess.field_at(q, model, x, y)
                profile = postprocess.stress_profile(q, model, x, y, z)
            except fgplate.GeometryError:
                seed_failed[k, i] = True
                postprocess.locate_point = robust_locate
                try:
                    field = postprocess.field_at(q, model, x, y)
                    profile = postprocess.stress_profile(q, model, x, y, z)
                finally:
                    postprocess.locate_point = library_locate
            values[k, i] = W.station_values(field, profile)
        # the damped iteration must agree with the library where both converge
        for i in np.flatnonzero(~seed_failed[k])[:20]:
            gap = np.subtract(robust_locate(model.patch, *stations[i]),
                              library_locate(model.patch, *stations[i]))
            if np.abs(gap).max() > 1e-10:
                raise RuntimeError("reference inverse map disagrees with the library")
        print(f"station-map: {net}: {int(seed_failed[k].sum())} of {W.STATION_POOL} "
              "stations fail in the library", flush=True)
    return {"stations": stations, "values": values, "seed_failed": seed_failed}


def main(argv: list[str]) -> None:
    W.REF_DIR.mkdir(exist_ok=True)
    for workload in argv or W.WORKLOADS:
        if workload == "station-map":
            np.savez_compressed(W.REF_DIR / "station-map.npz", **_station_reference())
        else:
            text = json.dumps(_case_reference(workload), indent=1, sort_keys=True)
            (W.REF_DIR / f"{workload}.json").write_text(text + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
