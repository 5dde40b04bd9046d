"""Case orchestration: configuration in, solved case and report out.

This is the library-level runner behind the CLI; it never touches files.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .assembly import BC, PlateModel, assemble
from .errors import ConfigurationError, MassMatrixError, SpectrumError
from .config import _SWEPT, CaseConfig
from .nurbs import BasisLocal, Patch
from .postprocess import (
    NondimReport,
    ReportFamily,
    StressProfile,
    _field,
    _profile,
    _station_basis,
    nondimensionalize,
)
# perfbench's tracer still wraps these names in this namespace, but run_case
# calls none of them: it recovers the station through one located basis, and
# assemble applies the edge conditions itself. apply_boundary_conditions is
# only that name: it is edge_constraints, not the old step on a system
from .assembly import edge_constraints as apply_boundary_conditions  # noqa: F401
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
    """The reports of a sweep, one per value of config.sweep_values."""

    config: CaseConfig
    reports: tuple[NondimReport, ...]

    def relative_changes(self) -> tuple[Optional[float], ...]:
        """Per-row change of the leading report scalar against the previous row."""
        leads = [r.values[0] for r in self.reports]
        out: list[Optional[float]] = [None]
        for prev, cur in zip(leads, leads[1:]):
            out.append(abs(cur - prev) / abs(prev) if prev else None)
        return tuple(out)


def run_case(config: CaseConfig, *, patch: Optional[Patch] = None) -> CaseResult:
    """Assemble on the free DOFs, solve and nondimensionalize one case, on the
    given patch (the one that the cases of a sweep share, see sweep_case) or
    on a newly built one."""
    model = config.build_model(patch)

    if config.analysis == "static":
        return _static_case(config, model)[0]

    if config.analysis == "vibrate":
        if all(bc is BC.FREE for bc in model.edge_bcs):
            raise MassMatrixError("mass matrix is singular on a plate free on every edge: the "
                                  "mode wb = -ws = const has neither inertia nor strain energy")
        system = assemble(model, want=("K", "M"))
        eigen = solve_vibration(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.span,
                                   omegas=eigen.frequencies())
    else:
        system = assemble(model, want=("K", "Kg"))
        if not np.any(system.free_dofs % 4 >= 2):
            raise SpectrumError("no buckling mode: no free deflection DOF (wb, ws) remains "
                                "after the edge constraints")
        eigen = solve_buckling(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.span, p_crs=eigen.values)
    return CaseResult(config=config, report=report, model=model, eigen=eigen)


def _static_case(config: CaseConfig, model: PlateModel) -> tuple[CaseResult, BasisLocal]:
    """A static case and the basis at its station, which is located once for
    the deflection, the stress and a profile."""
    system = assemble(model, want=("K", "F"))
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

    parse_config has read and checked every value, so each case is the
    parsed configuration with the swept field set to its value; its raw
    stays the sweep's document. A sweep over n, the thickness ratio or the
    shear model changes only the section constants, so its cases share one
    patch, and with it the patch's Gram and load vector, each built once and
    dropped when the sweep returns. A mesh sweep builds one patch per value.
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
    result, basis = _static_case(config, config.build_model())
    h = result.model.section.h
    z = np.linspace(-h / 2.0, h / 2.0, config.profile_samples)
    return result, _profile(result.q, result.model, basis, config.center(), z)
