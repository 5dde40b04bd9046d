"""Case orchestration: configuration in, solved case and report out.

This is the library-level runner behind the CLI; it never touches files.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import apply_boundary_conditions, assemble
from .errors import ConfigurationError
from .config import CaseConfig
from .postprocess import (
    NondimReport,
    ReportFamily,
    StressProfile,
    field_at,
    nondimensionalize,
    stress_profile,
)
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
        leads = [_lead_value(r) for r in self.reports]
        out: list[Optional[float]] = [None]
        for prev, cur in zip(leads, leads[1:]):
            out.append(abs(cur - prev) / abs(prev) if prev else None)
        return tuple(out)


def _lead_value(report: NondimReport) -> float:
    if report.w_bar is not None:
        return report.w_bar
    if report.omega_bar:
        return report.omega_bar[0]
    if report.p_cr_bar:
        return report.p_cr_bar[0]
    raise ValueError("report carries no scalar")


def run_case(config: CaseConfig) -> CaseResult:
    """Assemble, constrain, solve and nondimensionalize one case."""
    model = config.build_model()

    if config.analysis == "static":
        system = apply_boundary_conditions(assemble(model, want=("K", "F")), model)
        q = solve_static(system)
        x, y = config.center()
        w_center = field_at(q, model, x, y)[4]
        sigma = None
        if config.report is ReportFamily.BENDING_EC:
            h = model.section.h
            sigma = stress_profile(q, model, x, y, [h / 3.0]).sigma_x[0]
        report = nondimensionalize(config.report, model, span=config.span,
                                   q0=config.q0, w_center=w_center, sigma_x=sigma)
        return CaseResult(config=config, report=report, model=model, q=q,
                          w_center=w_center, sigma_x=sigma)

    if config.analysis == "vibrate":
        system = apply_boundary_conditions(assemble(model, want=("K", "M")), model)
        eigen = solve_vibration(system, config.modes)
        report = nondimensionalize(config.report, model, span=config.span,
                                   omegas=eigen.frequencies())
        return CaseResult(config=config, report=report, model=model, eigen=eigen)

    system = apply_boundary_conditions(assemble(model, want=("K", "Kg")), model)
    eigen = solve_buckling(system, config.modes)
    report = nondimensionalize(config.report, model, span=config.span,
                               p_crs=eigen.values)
    return CaseResult(config=config, report=report, model=model, eigen=eigen)


# the configuration field each sweep axis varies
_SWEEP_FIELDS = {"n": "power_index", "aspect": "thickness_ratio", "mesh": "elements",
                 "model": "shear_model"}


def sweep_case(config: CaseConfig) -> SweepResult:
    """One case per sweep value, in deterministic input order."""
    if config.sweep_axis is None:
        raise ConfigurationError("configuration has no sweep section")
    reports = []
    for value in config.sweep_values:
        result = run_case(config.replace(**{_SWEEP_FIELDS[config.sweep_axis]: value}))
        reports.append(result.report)
    return SweepResult(config=config, axis=config.sweep_axis,
                       values=config.sweep_values, reports=tuple(reports))


def profile_case(config: CaseConfig) -> tuple[CaseResult, StressProfile]:
    """Static solve plus a through-thickness stress profile at the station."""
    if config.analysis != "static":
        raise ConfigurationError("profiles require a static analysis configuration")
    result = run_case(config)
    model = result.model
    h = model.section.h
    z = np.linspace(-h / 2.0, h / 2.0, config.profile_samples)
    x, y = config.center()
    prof = stress_profile(result.q, model, x, y, z)
    return result, prof
