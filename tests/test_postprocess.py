"""Field recovery and nondimensionalization tests: deflection splitting,
traction-free shear recovery, stress antisymmetry, the vectorized profile
against a per-z strain_operators reference on a square and a rational disk,
one point location per static case, scaling linearity and the report
formulas."""
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fgplate as fg
from fgplate.assembly import BC, SinusoidalLoad
from fgplate.errors import ConfigurationError

from oracles import section_blocks_bruteforce, series_center_stress_x

AL = fg.MATERIALS["Al"]
AL2O3 = fg.MATERIALS["Al2O3"]


def solve_sin_case(n=1.0, r=4.0, q0=1.0, shear=fg.ShearModel.ATAN, nel=9):
    a = 1.0
    h = a / r
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=n)
    patch = fg.make_square_patch(a, a, 3, nel)
    sec = fg.section_constants(spec, shear, h)
    model = fg.PlateModel(patch=patch, section=sec, spec=spec, shear=shear,
                          edge_bcs=(BC.SIMPLY_SUPPORTED,) * 4,
                          load=SinusoidalLoad(q0, a, a))
    system = fg.assemble(model, want=("K", "F"))
    return model, fg.solve_static(system)


@pytest.fixture(scope="module")
def case():
    return solve_sin_case()


# ---------------------------------------------------------------------------
# field recovery
# ---------------------------------------------------------------------------

def test_deflection_is_sum_of_parts(case):
    model, q = case
    u0, v0, wb, ws, w = fg.field_at(q, model, 0.43, 0.58)
    assert w == wb + ws


def test_boundary_midpoint_deflection_vanishes(case):
    model, q = case
    w_mid = fg.field_at(q, model, 0.5, 0.5)[4]
    for station in ((0.5, 0.0), (0.0, 0.5), (1.0, 0.5), (0.5, 1.0)):
        w = fg.field_at(q, model, *station)[4]
        assert abs(w) < 1e-12 * abs(w_mid)


def test_point_outside_plate_raises(case):
    model, q = case
    with pytest.raises(fg.GeometryError):
        fg.field_at(q, model, 2.0, 2.0)


# ---------------------------------------------------------------------------
# stress profiles
# ---------------------------------------------------------------------------

def test_transverse_shear_vanishes_at_surfaces(case):
    model, q = case
    h = model.section.h
    prof = fg.stress_profile(q, model, 0.25, 0.25, np.linspace(-h / 2, h / 2, 11))
    interior_max = np.abs(prof.tau_xz[1:-1]).max()
    assert abs(prof.tau_xz[0]) < 1e-12 * interior_max
    assert abs(prof.tau_xz[-1]) < 1e-12 * interior_max
    assert abs(prof.tau_yz[0]) < 1e-12 * interior_max


def test_homogeneous_bending_stress_is_odd():
    model, q = solve_sin_case(n=0.0, shear=fg.ShearModel.CUBIC)
    h = model.section.h
    z = np.linspace(-h / 2, h / 2, 21)
    prof = fg.stress_profile(q, model, 0.5, 0.5, z)
    assert_allclose(prof.sigma_x, -prof.sigma_x[::-1], rtol=1e-10,
                    atol=1e-10 * np.abs(prof.sigma_x).max())


def test_center_stress_matches_series():
    # second derivatives converge slower than deflections: 1% at an 11x11 mesh
    model, q = solve_sin_case(nel=11)
    h = model.section.h
    prof = fg.stress_profile(q, model, 0.5, 0.5, [h / 3])
    blocks, ds, _ = section_blocks_bruteforce(model.spec, model.shear, h)
    expected = series_center_stress_x(1.0, h, model.spec, model.shear, blocks, ds, h / 3)
    assert prof.sigma_x[0] == pytest.approx(expected, rel=1e-2)


def test_stress_profile_continuous_in_z(case):
    model, q = case
    h = model.section.h
    coarse = fg.stress_profile(q, model, 0.5, 0.5, np.linspace(-h / 2, h / 2, 51))
    fine = fg.stress_profile(q, model, 0.5, 0.5, np.linspace(-h / 2, h / 2, 201))
    jump_coarse = np.abs(np.diff(coarse.sigma_x)).max()
    jump_fine = np.abs(np.diff(fine.sigma_x)).max()
    assert jump_fine < 0.5 * jump_coarse


def profile_reference(q, model, x, y, z):
    """Stresses point by point in z from strain_operators and the pointwise
    moduli, as the recovery was first written."""
    xi, eta = fg.nurbs.locate_point(model.patch, x, y)
    basis = fg.physical_derivs(model.patch, xi, eta)
    Bm, Bb1, Bb2, Bs, _ = fg.strain_operators(basis)
    qe = q[(4 * basis.active_indices[:, None] + np.arange(4)).ravel()]
    eps0, kb, ks, es = Bm @ qe, Bb1 @ qe, Bb2 @ qe, Bs @ qe
    h = model.section.h
    rows = []
    for zi in z:
        E, nu, _ = fg.effective_props(zi, h, model.spec)
        _, fp, g, _ = fg.shear_fn(model.shear, zi, h)
        eps = eps0 + zi * kb + g * ks
        c = E / (1.0 - nu * nu)
        G = E / (2.0 * (1.0 + nu))
        rows.append([c * (eps[0] + nu * eps[1]), c * (nu * eps[0] + eps[1]), G * eps[2],
                     G * fp * es[0], G * fp * es[1]])
    return np.array(rows).T


def solve_uniform_case(patch, edge_bcs):
    # uniform load, graded section, no symmetry between x and y on the square
    h = 0.1
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=2.0)
    sec = fg.section_constants(spec, fg.ShearModel.ATAN_SIN, h)
    model = fg.PlateModel(patch=patch, section=sec, spec=spec, shear=fg.ShearModel.ATAN_SIN,
                          edge_bcs=edge_bcs, load=fg.UniformLoad(1.0))
    system = fg.assemble(model, want=("K", "F"))
    return model, fg.solve_static(system)


@pytest.mark.parametrize("geometry,station", [("square", (0.3, 0.7)), ("disk", (0.21, -0.13))])
def test_stress_profile_matches_pointwise_reference(geometry, station):
    # the vectorized recovery through the kinematic tables against a per-z
    # loop over strain_operators, on a graded square and a rational disk
    if geometry == "square":
        edges = (BC.CLAMPED, BC.SIMPLY_SUPPORTED, BC.SIMPLY_SUPPORTED, BC.FREE)
        model, q = solve_uniform_case(fg.make_square_patch(1.0, 1.0, 3, 5), edges)
    else:
        model, q = solve_uniform_case(fg.make_disk_patch(0.5, 3, 5), (BC.CLAMPED,) * 4)
    h = model.section.h
    z = np.linspace(-h / 2, h / 2, 21)
    prof = fg.stress_profile(q, model, *station, z)
    got = np.array([prof.sigma_x, prof.sigma_y, prof.tau_xy, prof.tau_xz, prof.tau_yz])
    expected = profile_reference(q, model, *station, z)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_static_case_locates_its_station_once(monkeypatch):
    # run_case and profile_case recover w and the stresses at the centre from
    # one located basis; the values equal the separate public queries
    config = replace(fg.preset_config("bend-sin-atan-n1-r4"), elements=5)
    assert config.report is fg.ReportFamily.BENDING_EC
    locate = fg.postprocess.locate_point
    calls = []

    def counting_locate(*args, **kwargs):
        calls.append(args[1:])
        return locate(*args, **kwargs)

    monkeypatch.setattr(fg.postprocess, "locate_point", counting_locate)
    result = fg.run_case(config)
    assert len(calls) == 1
    _, profile = fg.profile_case(config)
    assert len(calls) == 2
    monkeypatch.undo()

    model, q = result.model, result.q
    h = model.section.h
    x, y = config.center()
    w = fg.field_at(q, model, x, y)[4]
    sigma = fg.stress_profile(q, model, x, y, [h / 3.0]).sigma_x[0]
    expected = fg.nondimensionalize(config.report, model, span=config.a, q0=config.q0,
                                    w_center=w, sigma_x=sigma)
    assert (result.w_center, result.sigma_x) == (w, sigma)
    assert (result.report.w_bar, result.report.sigma_x_bar) == (expected.w_bar, expected.sigma_x_bar)
    public = fg.stress_profile(q, model, x, y, profile.z_samples)
    for name in ("sigma_x", "sigma_y", "tau_xy", "tau_xz", "tau_yz"):
        assert np.array_equal(getattr(profile, name), getattr(public, name))


# ---------------------------------------------------------------------------
# nondimensionalization
# ---------------------------------------------------------------------------

def test_scaling_linearity():
    model1, q1 = solve_sin_case(q0=1.0, nel=5)
    model2, q2 = solve_sin_case(q0=7.3, nel=5)
    w1 = fg.field_at(q1, model1, 0.5, 0.5)[4]
    w2 = fg.field_at(q2, model2, 0.5, 0.5)[4]
    assert w2 == pytest.approx(7.3 * w1, rel=1e-9)
    rep1 = fg.nondimensionalize(fg.ReportFamily.BENDING_EC, model1, span=1.0, q0=1.0, w_center=w1)
    rep2 = fg.nondimensionalize(fg.ReportFamily.BENDING_EC, model2, span=1.0, q0=7.3, w_center=w2)
    assert rep1.w_bar == pytest.approx(rep2.w_bar, rel=1e-9)


def test_report_formulas_unit_inputs(case):
    model, _ = case
    h = model.section.h
    # frequency scaling is a pure product
    rep = fg.nondimensionalize(fg.ReportFamily.FREQUENCY, model, span=1.0, omegas=[0.0, 2.0])
    assert rep.omega_bar[0] == 0.0
    assert rep.omega_bar[1] == pytest.approx(2.0 * h * np.sqrt(AL.rho / AL.E))
    # metal-rigidity deflection scaling returns 1 for the inverse input
    winv = 12 * (1 - AL.nu**2) / (100 * AL.E * h**3)
    rep = fg.nondimensionalize(fg.ReportFamily.BENDING_DM, model, span=1.0, q0=1.0, w_center=winv)
    assert rep.w_bar == pytest.approx(1.0, rel=1e-12)
    # buckling scaling: p R^2 / Dm
    dm = AL.E * h**3 / (12 * (1 - AL.nu**2))
    rep = fg.nondimensionalize(fg.ReportFamily.BUCKLING_DM, model, span=2.0, p_crs=[dm / 4.0])
    assert rep.p_cr_bar[0] == pytest.approx(1.0, rel=1e-12)


def test_unknown_family_and_missing_inputs_raise(case):
    model, _ = case
    with pytest.raises(ConfigurationError):
        fg.nondimensionalize(fg.ReportFamily.BENDING_EC, model, span=1.0)
    with pytest.raises(ConfigurationError):
        fg.nondimensionalize(fg.ReportFamily.FREQUENCY, model, span=1.0)
