"""Case orchestration: configuration in, solved case and report out.

This is the library-level runner behind the CLI; it never touches files.
It reads points only through the public postprocess.locate: a static
result carries the Station of its case (CaseResult.station), located once
for the deflection, the stress and the CLI's profile.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .assembly import BC, PlateModel, assemble
from .errors import ConfigurationError, MassMatrixError
from .config import _SWEPT, CaseConfig
from .nurbs import Patch
from .postprocess import (NondimReport, ReportFamily, Station, StressProfile, locate,
                          nondimensionalize)
# perfbench's tracer still wraps these names in this namespace, but run_case
# calls none of them: it recovers the station through one located Station,
# and assemble applies the edge conditions itself. apply_boundary_conditions
# is only that name: it is edge_constraints, not the old step on a system
from .assembly import edge_constraints as apply_boundary_conditions  # noqa: F401
from .postprocess import field_at, stress_profile  # noqa: F401
from .solvers import EigenResult, solve_buckling, solve_static, solve_vibration

__all__ = ["CaseResult", "SweepResult", "run_case", "sweep_case", "profile_case"]


@dataclass(frozen=True)
class CaseResult:
    """One solved case and its report. A static case also carries the
    solution q, the raw w and sigma_x it reports, and the located Station
    they were read from; a vibration or buckling case carries its eigen."""

    config: CaseConfig
    report: NondimReport
    model: object = None
    q: Optional[np.ndarray] = None
    eigen: Optional[EigenResult] = None
    w_center: Optional[float] = None
    sigma_x: Optional[float] = None
    station: Optional[Station] = None


@dataclass(frozen=True)
class SweepResult:
    """The reports of a sweep, one per value of config.sweep_values, in that
    order. The CLI lays them out as one table (cli._cmd_sweep)."""

    config: CaseConfig
    reports: tuple[NondimReport, ...]


def run_case(config: CaseConfig, *, patch: Optional[Patch] = None) -> CaseResult:
    """Assemble on the free DOFs, solve and nondimensionalize one case, on the
    given patch (the one that the cases of a sweep share, see sweep_case) or
    on a newly built one."""
    model = config.build_model(patch)

    if config.analysis == "static":
        return _static_case(config, model)

    if config.analysis == "vibrate":
        if all(bc is BC.FREE for bc in model.edge_bcs):
            raise MassMatrixError("mass matrix is singular on a plate free on every edge: the "
                                  "mode wb = -ws = const has neither inertia nor strain energy")
        system = assemble(model, want=("K", "M"))
        eigen = solve_vibration(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.a,
                                   omegas=eigen.frequencies())
    else:
        eigen = solve_buckling(assemble(model, want=("K", "Kg")), config.modes)
        report = nondimensionalize(config.report, model, span=config.a, p_crs=eigen.values)
    return CaseResult(config=config, report=report, model=model, eigen=eigen)


def _static_case(config: CaseConfig, model: PlateModel) -> CaseResult:
    """A static case, whose station is located once for the deflection, the
    stress and a profile."""
    q = solve_static(assemble(model, want=("K", "F")))
    station = locate(model.patch, *config.center())
    w_center = station.field(q)[4]
    sigma = None
    if config.report is ReportFamily.BENDING_EC:
        sigma = station.stresses(q, model, [model.section.h / 3.0]).sigma_x[0]
    report = nondimensionalize(config.report, model, span=config.a,
                               q0=config.q0, w_center=w_center, sigma_x=sigma)
    return CaseResult(config=config, report=report, model=model, q=q,
                      w_center=w_center, sigma_x=sigma, station=station)


def sweep_case(config: CaseConfig) -> SweepResult:
    """One case per sweep value, in deterministic input order.

    parse_config has read and checked every value, so each case is the
    parsed configuration with the swept field set to its value. A sweep over
    n, the thickness ratio or the shear model changes only the section
    constants, so its cases share one patch, and with it the patch's Gram and
    load vector, each built once and dropped when the sweep returns. A mesh
    sweep builds one patch per value.
    """
    if config.sweep_axis is None:
        raise ConfigurationError("configuration has no sweep section")
    swept = _SWEPT[config.sweep_axis].field
    patch = None if swept == "elements" else config.build_patch()
    return SweepResult(config=config, reports=tuple(
        run_case(replace(config, **{swept: value}), patch=patch).report
        for value in config.sweep_values))


def profile_case(config: CaseConfig) -> tuple[CaseResult, StressProfile]:
    """Static solve plus a through-thickness stress profile at the station."""
    if config.analysis != "static":
        raise ConfigurationError("profiles require a static analysis configuration")
    result = _static_case(config, config.build_model())
    h = result.model.section.h
    z = np.linspace(-h / 2.0, h / 2.0, config.profile_samples)
    return result, result.station.stresses(result.q, result.model, z)
