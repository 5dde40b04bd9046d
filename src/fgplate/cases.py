"""Case orchestration: configuration in, solved case and report out.

This is the library-level runner behind the CLI; it never touches files.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import BC, PatchTables, PlateModel, apply_boundary_conditions, assemble
from .errors import ConfigurationError, MassMatrixError, SpectrumError
from .config import _SWEEP_FIELDS, CaseConfig
from .nurbs import BasisLocal
from .postprocess import (
    NondimReport,
    ReportFamily,
    StressProfile,
    _field,
    _profile,
    _station_basis,
    nondimensionalize,
)
# run_case recovers the station through one located basis, not through these
# public queries; perfbench's tracer still wraps them in this namespace
from .postprocess import field_at, stress_profile  # noqa: F401
from .solvers import EigenResult, solve_buckling, solve_static, solve_vibration

__all__ = ["CaseResult", "SweepResult", "run_case", "sweep_case", "profile_case"]


@dataclass(frozen=True)
class CaseResult:
    config: CaseConfig
    report: NondimReport
    model: object = None
    q: Optional[np.ndarray] = None
    eigen: Optional[EigenResult] = None
    w_center: Optional[float] = None
    sigma_x: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    config: CaseConfig
    axis: str
    values: tuple
    reports: tuple[NondimReport, ...]

    def relative_changes(self) -> tuple[Optional[float], ...]:
        """Per-row change of the leading report scalar against the previous row."""
        leads = [r.values[0] for r in self.reports]
        out: list[Optional[float]] = [None]
        for prev, cur in zip(leads, leads[1:]):
            out.append(abs(cur - prev) / abs(prev) if prev else None)
        return tuple(out)


def run_case(config: CaseConfig, *, tables: Optional[PatchTables] = None) -> CaseResult:
    """Assemble, constrain, solve and nondimensionalize one case. Given the
    tables that the cases of a sweep share, the case is built on their patch
    and assembled from them."""
    model = config.build_model(None if tables is None else tables.patch)

    if config.analysis == "static":
        return _static_case(config, model, tables)[0]

    if config.analysis == "vibrate":
        if all(bc is BC.FREE for bc in model.edge_bcs):
            raise MassMatrixError("mass matrix is singular on a plate free on every edge: the "
                                  "mode wb = -ws = const has neither inertia nor strain energy")
        system = apply_boundary_conditions(assemble(model, want=("K", "M"), tables=tables), model)
        eigen = solve_vibration(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.span,
                                   omegas=eigen.frequencies())
    else:
        system = apply_boundary_conditions(assemble(model, want=("K", "Kg"), tables=tables), model)
        if not np.any(system.free_dofs % 4 >= 2):
            raise SpectrumError("no buckling mode: no free deflection DOF (wb, ws) remains "
                                "after the edge constraints")
        eigen = solve_buckling(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.span, p_crs=eigen.values)
    return CaseResult(config=config, report=report, model=model, eigen=eigen)


def _static_case(config: CaseConfig, model: PlateModel,
                 tables: Optional[PatchTables] = None) -> tuple[CaseResult, BasisLocal]:
    """A static case and the basis at its station, which is located once for
    the deflection, the stress and a profile."""
    system = apply_boundary_conditions(assemble(model, want=("K", "F"), tables=tables), model)
    q = solve_static(system)
    x, y = config.center()
    basis = _station_basis(model, x, y)
    w_center = _field(q, basis)[4]
    sigma = None
    if config.report is ReportFamily.BENDING_EC:
        h = model.section.h
        sigma = _profile(q, model, basis, (x, y), [h / 3.0]).sigma_x[0]
    report = nondimensionalize(config.report, model, span=config.span,
                               q0=config.q0, w_center=w_center, sigma_x=sigma)
    result = CaseResult(config=config, report=report, model=model, q=q,
                        w_center=w_center, sigma_x=sigma)
    return result, basis


def sweep_case(config: CaseConfig) -> SweepResult:
    """One case per sweep value, in deterministic input order.

    A sweep over n, the thickness ratio or the shear model changes only the
    section constants, so its cases share one patch, one geometry pass of
    assembly (the basis tables of every element) and one load vector, all
    dropped when the sweep returns. A mesh sweep builds each case anew.
    """
    if config.sweep_axis is None:
        raise ConfigurationError("configuration has no sweep section")
    key = _SWEEP_FIELDS[config.sweep_axis]
    tables = None if key == "elements" else PatchTables(config.build_patch())
    reports = []
    for value in config.sweep_values:
        result = run_case(config.replace(**{key: value}), tables=tables)
        reports.append(result.report)
    return SweepResult(config=config, axis=config.sweep_axis,
                       values=config.sweep_values, reports=tuple(reports))


def profile_case(config: CaseConfig) -> tuple[CaseResult, StressProfile]:
    """Static solve plus a through-thickness stress profile at the station."""
    if config.analysis != "static":
        raise ConfigurationError("profiles require a static analysis configuration")
    result, basis = _static_case(config, config.build_model())
    h = result.model.section.h
    z = np.linspace(-h / 2.0, h / 2.0, config.profile_samples)
    return result, _profile(result.q, result.model, basis, config.center(), z)
