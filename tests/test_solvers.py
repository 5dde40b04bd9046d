"""Solver tests: trivial systems, residual bounds, degenerate-pair handling,
cross-checks of the discretization against independent trigonometric-series
solutions, spectral monotonicity properties, systems left unchanged by a
solve, top-k buckling against the full spectrum, the banded Lanczos
eigensolver against a dense subset eigh on the same matrices, the static
residual's split against exact rational residuals, and static answers that
do not depend on the factor's roundoff."""
import logging
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import fgplate as fg
from fgplate import solvers
from fgplate.assembly import BC, GlobalSystem, SinusoidalLoad
from fgplate.errors import MassMatrixError, SolverError, SpectrumError

from oracles import (
    lower_band,
    section_blocks_bruteforce,
    series_center_deflection_sin,
    series_frequencies,
)

AL = fg.MATERIALS["Al"]
AL2O3 = fg.MATERIALS["Al2O3"]
ZRO2 = fg.MATERIALS["ZrO2-1"]


def tiny_system(K, M=None, Kg=None, F=None, kd=None):
    """A system built by hand from dense matrices, packed in band storage of
    half-bandwidth kd (default: the full width)."""
    n = np.asarray(K).shape[0]
    return GlobalSystem(n_dofs=n, K=lower_band(K, kd),
                        M=None if M is None else lower_band(M, kd),
                        Kg=None if Kg is None else lower_band(Kg, kd),
                        F=None if F is None else np.asarray(F, float))


def build_case(spec, shear, bcs, load=None, prestress=None, a=1.0, r=5.0, p=3, nel=7,
               want=("K", "F")):
    h = a / r
    patch = fg.make_square_patch(a, a, p, nel)
    sec = fg.section_constants(spec, shear, h)
    model = fg.PlateModel(patch=patch, section=sec, spec=spec, shear=shear,
                          edge_bcs=bcs, load=load, prestress=prestress)
    system = fg.assemble(model, want=want)
    return model, system


# ---------------------------------------------------------------------------
# trivial cases
# ---------------------------------------------------------------------------

def test_static_identity():
    system = tiny_system(np.eye(3), F=np.array([1.0, 0.0, 0.0]))
    q = fg.solve_static(system)
    assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-14)


def test_static_zero_load():
    system = tiny_system(np.diag([2.0, 3.0]), F=np.zeros(2))
    assert_allclose(fg.solve_static(system), np.zeros(2), atol=0)


def test_static_rejects_indefinite():
    system = tiny_system(np.diag([1.0, -1.0]), F=np.ones(2))
    with pytest.raises(SolverError, match="pivot"):
        fg.solve_static(system)


def test_static_names_the_failing_pivot():
    # a positive diagonal passes the equilibration; the band Cholesky fails
    system = tiny_system([[1.0, 2.0], [2.0, 1.0]], F=np.ones(2))
    with pytest.raises(SolverError, match="pivot 2 of 2"):
        fg.solve_static(system)


def test_vibration_single_dof():
    res = fg.solve_vibration(tiny_system([[4.0]], M=[[1.0]]), 1)
    assert res.frequencies()[0] == pytest.approx(2.0)


def test_vibration_rejects_singular_mass():
    with pytest.raises(MassMatrixError):
        fg.solve_vibration(tiny_system(np.eye(2), M=np.diag([1.0, 0.0])), 2)


def test_vibration_rejects_indefinite_mass():
    # a positive diagonal does not make M positive definite: the pencil's
    # negative mu is an eigenvalue with no positive mass
    with pytest.raises(MassMatrixError, match="positive modes"):
        fg.solve_vibration(tiny_system(np.eye(2), M=[[1.0, 2.0], [2.0, 1.0]]), 2)


def test_buckling_single_dof_pattern_operator():
    # a positive Kg is the geometric stiffness of tension, not an operator
    # to be flipped back: it has no buckling load
    with pytest.raises(SpectrumError, match="no positive buckling factor"):
        fg.solve_buckling(tiny_system([[6.0]], Kg=[[2.0]]), 1)


def test_buckling_single_dof_compressive_assembly():
    # as assembled from a compressive tensile-positive prestress
    res = fg.solve_buckling(tiny_system([[6.0]], Kg=[[-2.0]]), 1)
    assert res.values[0] == pytest.approx(3.0)


def test_buckling_no_spectrum():
    with pytest.raises(SpectrumError):
        fg.solve_buckling(tiny_system(np.eye(2), Kg=np.zeros((2, 2))), 1)


# ---------------------------------------------------------------------------
# failure branches that no preset reaches, on systems built by hand
# ---------------------------------------------------------------------------

def test_vibration_rejects_an_eigenvalue_negative_beyond_roundoff():
    # diag K = (1, -1e-12) with M = I: K + sigma M is positive definite, but
    # lambda = -1e-12 lies below the rigid-mode floor -1e-16 max(diag K / diag M)
    system = GlobalSystem(n_dofs=2, K=[[1.0, -1e-12]], M=[[1.0, 1.0]])
    with pytest.raises(SolverError, match=re.escape(
            "vibration eigenvalue lambda = -1.000e-12 is negative beyond roundoff")):
        fg.solve_vibration(system, 1)


def test_static_rejects_a_system_without_free_dofs():
    system = GlobalSystem(n_dofs=4, K=np.zeros((1, 0)), F=np.ones(4), fixed_dofs=np.arange(4))
    with pytest.raises(SolverError, match="no free DOFs remain after constraints"):
        fg.solve_static(system)


def test_unit_step_at_an_exact_solution_returns_x_itself():
    # with a zero residual no float64 neighbour of any entry lowers it
    K = lower_band(np.array([[4.0, 1.0], [1.0, 3.0]]), 1)
    x = np.array([0.25, -0.5])
    squares = np.array([17.0, 10.0])
    assert solvers._unit_step(K, squares, x, np.zeros(2)) is x


# ---------------------------------------------------------------------------
# solution quality on real systems
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def static_case():
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    return build_case(spec, fg.ShearModel.ATAN, (BC.SIMPLY_SUPPORTED,) * 4,
                      load=SinusoidalLoad(1.0, 1.0, 1.0))


def test_static_residual_and_fixed_zeros(static_case):
    model, system = static_case
    q = fg.solve_static(system)
    free = system.free_dofs
    K = system.reduce(system.K)
    resid = np.linalg.norm(K @ q[free] - system.F[free])
    assert resid <= 1e-10 * np.linalg.norm(system.F[free])
    assert np.all(q[system.fixed_dofs] == 0.0)


def test_static_matches_series_solution(static_case):
    model, system = static_case
    q = fg.solve_static(system)
    wc = fg.field_at(q, model, 0.5, 0.5)[4]
    blocks, ds, _ = section_blocks_bruteforce(model.spec, model.shear, model.section.h)
    wc_series, _ = series_center_deflection_sin(1.0, model.section.h, blocks, ds)
    assert wc == pytest.approx(wc_series, rel=2e-4)


def test_boundary_value_vanishes(static_case):
    model, system = static_case
    q = fg.solve_static(system)
    w_edge = fg.field_at(q, model, 0.5, 0.0)[4]
    w_center = fg.field_at(q, model, 0.5, 0.5)[4]
    assert abs(w_edge) < 1e-12 * abs(w_center)


@pytest.fixture(scope="module")
def vibration_case():
    spec = fg.FGMSpec(ceramic=ZRO2, metal=AL, n=1.0, scheme=fg.Scheme.MORI_TANAKA)
    return build_case(spec, fg.ShearModel.ATAN, (BC.SIMPLY_SUPPORTED,) * 4, want=("K", "M"))


def test_vibration_matches_series_and_rayleigh(vibration_case):
    model, system = vibration_case
    res = fg.solve_vibration(system, 8)
    K, M = map(system.reduce, (system.K, system.M))
    for lam, v in zip(res.values, res.vectors.T):
        rayleigh = (v @ K @ v) / (v @ M @ v)
        assert rayleigh == pytest.approx(lam, rel=1e-9)
        resid = np.linalg.norm(K @ v - lam * (M @ v))
        assert resid <= 1e-8 * np.linalg.norm(K, 2) * np.linalg.norm(v)
    blocks, ds, inertias = section_blocks_bruteforce(model.spec, model.shear, model.section.h)
    expected = series_frequencies(1.0, model.section.h, blocks, ds, inertias)[:8]
    assert_allclose(res.frequencies(), expected, rtol=2e-3)
    # modes come out mass-normalized
    for v in res.vectors.T:
        assert v @ M @ v == pytest.approx(1.0, abs=1e-10)


def test_vibration_degenerate_pair_listed_twice(vibration_case):
    # published value for this pair of in-plane modes is 0.4116 at a/h = 5
    model, system = vibration_case
    res = fg.solve_vibration(system, 3)
    f = res.frequencies()
    assert f[1] == pytest.approx(f[2], rel=1e-10)
    h = model.section.h
    omega_bar = f[1] * h * np.sqrt(AL.rho / AL.E)
    assert omega_bar == pytest.approx(0.4116, rel=5e-3)


def test_frequencies_increase_with_power_index():
    previous = 0.0
    for n in (1.0, 2.0, 3.0, 5.0):
        spec = fg.FGMSpec(ceramic=ZRO2, metal=AL, n=n, scheme=fg.Scheme.MORI_TANAKA)
        _, system = build_case(spec, fg.ShearModel.ATAN, (BC.SIMPLY_SUPPORTED,) * 4,
                               nel=5, want=("K", "M"))
        f = fg.solve_vibration(system, 1).frequencies()[0]
        assert f > previous
        previous = f


def test_mesh_objectivity_of_static_solution():
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    h = 0.2
    shear = fg.ShearModel.ATAN
    section = fg.section_constants(spec, shear, h)
    base_patch = fg.make_square_patch(1.0, 1.0, 3, 6)
    refined_patch = fg.h_refine(base_patch, [1.0 / 12.0], [5.0 / 12.0])
    results = []
    for patch in (base_patch, refined_patch):
        model = fg.PlateModel(patch=patch, section=section, spec=spec, shear=shear,
                              edge_bcs=(BC.SIMPLY_SUPPORTED,) * 4,
                              load=SinusoidalLoad(1.0, 1.0, 1.0))
        system = fg.assemble(model, want=("K", "F"))
        q = fg.solve_static(system)
        results.append(fg.field_at(q, model, 0.5, 0.5)[4])
    assert abs(results[1] - results[0]) / abs(results[0]) < 1e-3


def test_constraining_an_edge_raises_fundamental(vibration_case):
    model, system = vibration_case
    base = fg.solve_vibration(system, 1).frequencies()[0]
    stiffer_model = fg.PlateModel(
        patch=model.patch, section=model.section, spec=model.spec, shear=model.shear,
        edge_bcs=(BC.CLAMPED, BC.SIMPLY_SUPPORTED, BC.SIMPLY_SUPPORTED, BC.SIMPLY_SUPPORTED))
    stiffer = fg.assemble(stiffer_model, want=("K", "M"))
    harder = fg.solve_vibration(stiffer, 1).frequencies()[0]
    assert harder > base


# ---------------------------------------------------------------------------
# thin limits: M couples wb and ws only through terms of order h^2, so the
# pencil factorizes K + sigma M, never M
# ---------------------------------------------------------------------------

ZRO2_MT = fg.FGMSpec(ceramic=ZRO2, metal=AL, n=1.0, scheme=fg.Scheme.MORI_TANAKA)


def thin_vibration(code, r, nel, k=4):
    bcs = tuple(BC(c) for c in code)
    model, system = build_case(ZRO2_MT, fg.ShearModel.ATAN, bcs, r=r, nel=nel, want=("K", "M"))
    return model, system, fg.solve_vibration(system, k)


def test_thin_simply_supported_vibration_matches_series():
    # eigh(K, M) gave lambda = -3.7e4 here and the 4x4 series oracle 2,349.9
    model, system, res = thin_vibration("SSSS", 1e6, 7)
    blocks, ds, inertias = section_blocks_bruteforce(model.spec, model.shear, model.section.h)
    expected = series_frequencies(1.0, model.section.h, blocks, ds, inertias)[:4]
    assert expected[0] ** 2 == pytest.approx(9.8108e-4, rel=1e-4)
    assert_allclose(res.frequencies(), expected, rtol=1e-3)
    K, M = map(system.reduce, (system.K, system.M))
    for lam, v in zip(res.values, res.vectors.T):
        assert v @ M @ v == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(K @ v - lam * (M @ v)) <= 1e-8 * lam * np.linalg.norm(M @ v)


def test_thin_degenerate_pair_is_equal_to_roundoff():
    # eigh(K, M) split the (1, 2)/(2, 1) pair by 3.5% at a/h = 1e4 on 7
    # elements and put lambda_1 4% low
    _, _, res = thin_vibration("SSSS", 1e4, 7, k=3)
    assert res.values[2] == pytest.approx(res.values[1], rel=1e-12)
    assert res.values[0] * 1e8 == pytest.approx(9.8112e8, rel=1e-4)


def test_thin_cantilever_eigenvalues_scale_as_h_squared():
    # lambda ~ D / (rho h) ~ h^2 once shear is negligible; eigh(K, M) gave
    # 0.2979 at a/h = 1e4 on 5 elements (0.7406, a double mode, on 11) and a
    # negative lambda at a/h = 1e6
    scaled = [thin_vibration("CFFF", r, 5)[2].values * r**2 for r in (1e4, 1e6)]
    assert scaled[0][0] == pytest.approx(3.0418e7, rel=1e-4)
    assert_allclose(scaled[1], scaled[0], rtol=1e-6)


def test_thin_flexible_mode_is_not_taken_for_a_rigid_one():
    # the flexible lambda_2 of FSSF at a/h = 1e6 lies below the old rigid-mode
    # floor 1e-12 max(diag K / diag M) = 1.9e-2 and above the new 1e-16 one
    _, system, res = thin_vibration("FSSF", 1e6, 6)
    K, M = map(system.reduce, (system.K, system.M))
    ratio = np.diag(K) / np.diag(M)
    assert res.values[0] == 0.0
    assert res.values[1] == pytest.approx(2.864e-5, rel=1e-3)
    assert 2.0 * 1e-16 * ratio.max() < res.values[1] < 1e-12 * ratio.max()


# ---------------------------------------------------------------------------
# buckling on the disk
# ---------------------------------------------------------------------------

def disk_buckling(hr, nel=9, mapped=False, k=4):
    R = 0.5
    h = hr * R
    spec = fg.FGMSpec(ceramic=fg.MATERIALS["ZrO2-2"], metal=AL, n=0.0,
                      profile=fg.Profile.METAL_POWER)
    patch = (fg.make_mapped_disk_patch if mapped else fg.make_disk_patch)(R, 3, nel)
    sec = fg.section_constants(spec, fg.ShearModel.ATAN, h)
    model = fg.PlateModel(patch=patch, section=sec, spec=spec, shear=fg.ShearModel.ATAN,
                          edge_bcs=(BC.CLAMPED,) * 4, prestress=-np.eye(2))
    system = fg.assemble(model, want=("K", "Kg"))
    res = fg.solve_buckling(system, k)
    dm = AL.E * h**3 / (12 * (1 - AL.nu**2))
    return res, system, [v * R**2 / dm for v in res.values]


def test_buckling_values_ascending_and_residuals():
    res, system, pbars = disk_buckling(0.2)
    assert np.all(np.diff(res.values) >= 0)
    K, Kg = map(system.reduce, (system.K, system.Kg))
    G = -Kg
    knorm = np.linalg.norm(K, 2)
    for lam, v in zip(res.values, res.vectors.T):
        resid = np.linalg.norm(K @ v - lam * (G @ v))
        assert resid <= 1e-8 * knorm * np.linalg.norm(v)


def test_buckling_decreases_with_thickness():
    _, _, thick = disk_buckling(0.25)
    _, _, thin = disk_buckling(0.1)
    assert thin[0] > thick[0]


# ---------------------------------------------------------------------------
# solves read the system and leave it as it is; buckling computes k pairs
# ---------------------------------------------------------------------------

SOLVES = {
    "static": (("K", "F"), fg.solve_static),
    "vibration": (("K", "M"), lambda system: fg.solve_vibration(system, 4)),
    "buckling": (("K", "Kg"), lambda system: fg.solve_buckling(system, 4)),
}


@pytest.mark.parametrize("analysis", SOLVES)
def test_solve_leaves_the_system_unchanged_and_repeats_bitwise(analysis):
    want, solve = SOLVES[analysis]
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    _, system = build_case(spec, fg.ShearModel.ATAN, (BC.SIMPLY_SUPPORTED,) * 4, nel=4,
                           load=SinusoidalLoad(1.0, 1.0, 1.0), prestress=-np.eye(2), want=want)
    before = {name: getattr(system, name).copy() for name in want}
    first = solve(system)
    for name, array in before.items():
        assert np.array_equal(getattr(system, name), array), name
    second = solve(system)
    if analysis == "static":
        assert np.array_equal(first, second)
    else:
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)


@pytest.mark.parametrize("analysis", SOLVES)
def test_bands_are_read_only(analysis):
    want, solve = SOLVES[analysis]
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    _, system = build_case(spec, fg.ShearModel.ATAN, (BC.CLAMPED,) * 4, nel=3,
                           load=SinusoidalLoad(1.0, 1.0, 1.0), prestress=-np.eye(2), want=want)
    first, second = solve(system), solve(system)
    if analysis == "static":
        assert np.array_equal(first, second)
    else:
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)
    with pytest.raises(ValueError, match="read-only"):
        system.K[0, 0] = 0.0
    # a band built by hand is taken as a read-only Fortran-ordered view;
    # the caller's array keeps its own flags
    K = lower_band(np.eye(3))
    system = GlobalSystem(n_dofs=3, K=K)
    assert K.flags.writeable and not system.K.flags.writeable and system.K.flags.f_contiguous


PRESTRESSES = {
    "compressive": [[-1.0, 0.0], [0.0, -1.0]],
    "tensile": [[1.0, 0.0], [0.0, 0.5]],
    "mixed": [[-1.0, 0.0], [0.0, 0.5]],
    "shear": [[0.0, 1.0], [1.0, 0.0]],
}


def _buckling_system(geometry, prestress):
    spec = fg.FGMSpec(ceramic=ZRO2, metal=AL, n=2.0)
    shear = fg.ShearModel.ATAN
    if geometry == "mapped-disk-CCCC":
        patch, h = fg.make_mapped_disk_patch(0.5, 3, 4), 0.1
    else:
        patch, h = fg.make_square_patch(1.0, 1.0, 3, 4), 0.1
    bc = BC.SIMPLY_SUPPORTED if geometry == "square-SSSS" else BC.CLAMPED
    model = fg.PlateModel(patch=patch, section=fg.section_constants(spec, shear, h), spec=spec,
                          shear=shear, edge_bcs=(bc,) * 4, prestress=np.array(prestress))
    return fg.assemble(model, want=("K", "Kg"))


@pytest.mark.parametrize("prestress", PRESTRESSES)
@pytest.mark.parametrize("geometry", ["square-SSSS", "square-CCCC", "mapped-disk-CCCC"])
def test_buckling_top_k_matches_the_full_spectrum(geometry, prestress):
    # the k largest theta of the flipped pencil against every theta of a full
    # solve; tension has none, and raises
    system = _buckling_system(geometry, PRESTRESSES[prestress])
    K, Kg = map(system.reduce, (system.K, system.Kg))
    theta = sla.eigh(-Kg, K, eigvals_only=True)
    positive = theta[theta > 1e-12 * np.abs(theta).max()]
    if prestress == "tensile":
        assert positive.size == 0
        with pytest.raises(SpectrumError, match="no positive buckling factor"):
            fg.solve_buckling(system, 4)
        return
    got = fg.solve_buckling(system, 4).values
    expected = 1.0 / np.sort(positive)[::-1][:4]
    assert got.size == expected.size
    assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("name", ["bend-sin-atan-n1-r4", "bend-sin-atan_sin-n1-r100"])
def test_static_refinement_stops_when_a_sweep_stalls(name, caplog):
    # the residual stalls at 1.3e-13 and 2.6e-11 after two sweeps; all 8 ran
    # before the refinement stopped at the first sweep that fails to halve it
    caplog.set_level(logging.DEBUG, logger="fgplate")
    fg.run_case(fg.preset_config(name))
    (record,) = [r for r in caplog.records if r.msg.startswith("static solve")]
    sweeps, residual = record.args
    assert sweeps <= 3
    assert residual <= 1e-10


def test_static_refinement_runs_on_past_a_stall_above_the_contract(caplog):
    # 82 free DOFs whose float64 vector nearest the solution leaves a
    # relative residual of 1.5e-10: stopping at the first stall raises
    caplog.set_level(logging.DEBUG, logger="fgplate")
    config = fg.parse_config({
        "geometry": {"type": "disk", "radius": 0.5, "net": "rational"},
        "thickness_ratio": 0.030847381782144048, "degree": 2, "elements": 4,
        "material": {"ceramic": "ZrO2-2", "metal": "Al", "power_index": 0.5},
        "shear_model": "atan_sin", "edge_bcs": "CFFC",
        "load": {"type": "uniform", "q0": 1.0}, "analysis": {"type": "static"},
    })
    result = fg.run_case(config)
    (record,) = [r for r in caplog.records if r.msg.startswith("static solve")]
    assert record.args[1] <= 1e-10
    assert result.report.w_bar == pytest.approx(10.393262668033373, rel=1e-9)


@pytest.mark.parametrize("geometry,ratio,degree,edges,floor", [
    ({"type": "square", "a": 1.0}, 9.7e5, 4, "CFFF", 1.34e-8),
    ({"type": "disk", "radius": 0.5}, 1e-4, 3, "SFFF", 8.1e-9),
])
def test_static_stall_reports_the_float64_floor(geometry, ratio, degree, edges, floor):
    # thin plates with one supported edge stall at relative residuals of
    # 7.7e-10 and 3.2e-10: rounding the answer to float64 alone can leave
    # eps |||K| |x||| / ||F||, which is larger. Those residuals are what
    # the sweep budget's one-ulp moves (solvers._unit_step) reach; more
    # moves lower them, and on the disk reach the contract
    config = fg.parse_config({
        "geometry": geometry, "thickness_ratio": ratio, "degree": degree, "elements": 3,
        "material": {"ceramic": "Al2O3", "metal": "Al", "power_index": 1.0},
        "edge_bcs": edges, "load": {"type": "uniform", "q0": 1.0},
    })
    with pytest.raises(SolverError, match="static solve stalled") as info:
        fg.run_case(config)
    residual, got = map(float, re.findall(r"\d\.\d+e[-+]\d+", str(info.value)))
    assert 1e-10 < residual <= got
    assert got == pytest.approx(floor, rel=0.01)


# ---------------------------------------------------------------------------
# the Lanczos eigensolve on the band factor against a dense subset eigh of
# the same flipped pencil, B v = mu (K + sigma B) v
# ---------------------------------------------------------------------------

def dense_largest(B, K, sigma, k):
    n = K.shape[0]
    return sla.eigh(B, K + sigma * B, eigvals_only=True, subset_by_index=(n - k, n - 1))[::-1]


def dense_vibration(system, k):
    """The vibration eigenvalues lambda = 1/mu - sigma of the flipped pencil
    by a dense subset eigh, and the rigid-mode floor within which
    solve_vibration returns 0."""
    K, M = map(system.reduce, (system.K, system.M))
    ratio = np.diag(K) / np.diag(M)
    sigma = 1e-9 * np.median(ratio)
    return 1.0 / dense_largest(M, K, sigma, k) - sigma, 1e-16 * ratio.max()


def assert_vibration_matches_dense(system, k, rtol=1e-10):
    res = fg.solve_vibration(system, k)
    expected, floor = dense_vibration(system, k)
    assert_allclose(res.values, expected, rtol=rtol, atol=floor)
    # mass-orthonormal modes, so a double mode comes back as two modes
    K, M, V = system.reduce(system.K), system.reduce(system.M), res.vectors
    assert_allclose(V.T @ M @ V, np.eye(k), atol=1e-9)
    # normwise backward errors at roundoff
    knorm, mnorm = np.linalg.norm(K, 1), np.linalg.norm(M, 1)
    for lam, v in zip(res.values, V.T):
        resid = np.linalg.norm(K @ v - lam * (M @ v))
        assert resid <= 1e-13 * (knorm + lam * mnorm) * np.linalg.norm(v)
    return res


def preset_system(name, want):
    config = fg.preset_config(name)
    return config, fg.assemble(config.build_model(), want=want)


def test_lanczos_finds_both_modes_of_the_ssss_double_pairs():
    config, system = preset_system("vib10-atan-n1-r10", ("K", "M"))
    res = assert_vibration_matches_dense(system, config.modes)
    # three double modes of the square among the first ten
    for first in (1, 3, 6):
        assert res.values[first + 1] == pytest.approx(res.values[first], rel=1e-12)


def test_lanczos_matches_dense_on_the_paired_modes_of_the_clamped_disk():
    config, system = preset_system("buck-disk-atan-n0-hr0.1", ("K", "Kg"))
    res = fg.solve_buckling(system, config.modes)
    k = config.modes
    K, Kg = map(system.reduce, (system.K, system.Kg))
    expected = 1.0 / dense_largest(-Kg, K, 0.0, k)
    assert_allclose(res.values, expected, rtol=1e-10)
    # the axisymmetric mode, then a pair
    assert res.values[2] == pytest.approx(res.values[1], rel=1e-12)
    V = res.vectors
    assert_allclose(V.T @ K @ V, np.eye(k), atol=1e-9)


def test_lanczos_matches_dense_on_the_thinnest_plate():
    _, system, _ = thin_vibration("SSSS", 1e6, 7)
    res = assert_vibration_matches_dense(system, 4)
    assert res.values[0] == pytest.approx(9.811e-4, rel=1e-4)


def test_lanczos_returns_the_rigid_modes_of_a_free_plate():
    _, system = build_case(ZRO2_MT, fg.ShearModel.ATAN, tuple(BC(c) for c in "FSFS"), nel=2,
                           want=("K", "M"))
    assert system.free_dofs.size > 9
    # the dense pairs' residuals reach 2.5e-8 of |K v| here, the Lanczos ones 6e-13
    res = assert_vibration_matches_dense(system, 8, rtol=1e-7)
    assert res.values[0] == 0.0 and res.values[-1] > 0.0


@pytest.mark.parametrize("k", [5, 6])
def test_systems_below_arpack_limit_take_the_dense_operator(k, monkeypatch):
    # eigsh needs k < n - 1; at k >= n - 1 the operator is formed densely
    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh called with k >= n - 1")

    monkeypatch.setattr(solvers, "eigsh", no_lanczos)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 6))
    K, M = X @ X.T + 6.0 * np.eye(6), np.diag(rng.uniform(1.0, 2.0, 6))
    res = fg.solve_vibration(tiny_system(K, M=M), k)
    assert_allclose(res.values, sla.eigh(K, M, eigvals_only=True)[:k], rtol=1e-12)
    assert_allclose(res.vectors.T @ M @ res.vectors, np.eye(k), atol=1e-12)


def test_tension_skips_lanczos_on_the_flipped_pencil(monkeypatch):
    # -Kg has no positive eigenvalue, so neither has the flipped pencil: its
    # k largest mu are a multiple zero, found without Lanczos, and the
    # solve raises
    calls = []
    monkeypatch.setattr(solvers, "eigsh", lambda *args, **kwargs: calls.append(kwargs))
    system = _buckling_system("square-SSSS", PRESTRESSES["tensile"])
    with pytest.raises(SpectrumError, match="no positive buckling factor"):
        fg.solve_buckling(system, 4)
    assert calls == []


def test_lanczos_failure_is_a_solver_error_with_the_residual(monkeypatch):
    _, system = preset_system("vib-atan-n1-r5", ("K", "M"))
    n = system.free_dofs.size

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([1e-9]), np.ones((n, 1)) / np.sqrt(n))

    monkeypatch.setattr(solvers, "eigsh", stalled)
    with pytest.raises(SolverError, match=r"L\^-1 B L\^-T .*1 of 2 pairs .*residual"):
        fg.solve_vibration(system, 2)

    def failed(*args, **kwargs):
        raise ArpackError(-9999)

    monkeypatch.setattr(solvers, "eigsh", failed)
    with pytest.raises(SolverError, match=r"Lanczos on L\^-1 B L\^-T .* failed"):
        fg.solve_vibration(system, 2)


# ---------------------------------------------------------------------------
# the band contract: K, M and Kg in LAPACK lower band storage of any width
# ---------------------------------------------------------------------------

def banded_spd(rng, n, kd, shift):
    """A random symmetric positive definite n x n matrix of half-bandwidth kd."""
    X = rng.standard_normal((n, n))
    A = X + X.T
    A[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kd] = 0.0
    return A + shift * np.eye(n)


def aligned(V, reference):
    """The columns of V, scaled to unit norm with the signs of the reference's."""
    V = V / np.linalg.norm(V, axis=0)
    return V * np.sign(np.sum(V * reference, axis=0))


@pytest.mark.parametrize("kd", [0, 1, 7])
def test_band_systems_built_by_hand_match_dense_solves(kd):
    # kd = n - 1 is the full width; every width gives the dense answers
    rng = np.random.default_rng(kd)
    n, k = 8, 3
    K, M = banded_spd(rng, n, kd, 2.0 * n), banded_spd(rng, n, kd, 2.0 * n)
    Kg = -banded_spd(rng, n, kd, 3.0 * n)
    F = rng.standard_normal(n)
    system = tiny_system(K, M=M, Kg=Kg, F=F, kd=kd)
    assert system.K.shape == (kd + 1, n)
    assert_allclose(fg.solve_static(system), sla.solve(K, F, assume_a="pos"), rtol=1e-12)
    for got, (values, vectors) in (
            (fg.solve_vibration(system, k), sla.eigh(K, M, subset_by_index=(0, k - 1))),
            (fg.solve_buckling(system, k), sla.eigh(K, -Kg, subset_by_index=(0, k - 1)))):
        assert_allclose(got.values, values, rtol=1e-10)
        unit = vectors / np.linalg.norm(vectors, axis=0)
        assert_allclose(aligned(got.vectors, unit), unit, atol=1e-9)


def exact_residual(K, F, x):
    """F - K x in rational arithmetic for a dense K, rounded to float64."""
    n = len(F)
    return np.array([float(Fraction(F[i]) - sum(Fraction(K[i, j]) * Fraction(x[j])
                                                 for j in range(n) if K[i, j]))
                     for i in range(n)])


def scale_mixed_systems(count, n=24, kd=3):
    """Random banded SPD systems D A D with D spread over six decades and A
    from well conditioned to near singular, and their float64 Cholesky
    solutions."""
    rng = np.random.default_rng(11)
    for draw in range(count):
        A = banded_spd(rng, n, kd, 0.0)
        A += (10.0 ** -(draw % 13) - np.linalg.eigvalsh(A)[0]) * np.eye(n)
        D = np.diag(10.0 ** rng.uniform(-3.0, 3.0, n))
        K, F = np.tril(D @ A @ D), rng.standard_normal(n)
        K += np.tril(K, -1).T
        yield K, F, sla.solveh_banded(lower_band(K, kd), F, lower=True)


def test_split_residual_is_exact_to_its_last_bits():
    # the split residual of a float64 solution agrees with the exact one to
    # 1e-3 of its size, at any conditioning and scale spread; the split reads
    # the factor's powers of two d and the equilibrated unknown y = x / d
    for K, F, x in scale_mixed_systems(39):
        band = lower_band(K, 3)
        d = solvers._factor(band, "K")[1]
        split = solvers._split_residual(band, F, d)(x / d) / d
        exact = exact_residual(K, F, x)
        assert np.linalg.norm(split - exact) <= 1e-3 * np.linalg.norm(exact)


def test_static_answers_meet_the_contract_in_exact_arithmetic(monkeypatch):
    # a returned answer's exact residual meets 1e-10; the others raise as
    # stalled. 7 of the 26 draws solve, 2 of them only after steps to a
    # float64 neighbour of the refined iterate
    steps = []
    unit_step = solvers._unit_step
    monkeypatch.setattr(solvers, "_unit_step", lambda *args: steps.append(1) or unit_step(*args))
    solved = 0
    for K, F, _ in scale_mixed_systems(26):
        try:
            q = fg.solve_static(tiny_system(K, F=F, kd=3))
        except SolverError as exc:
            assert "static solve stalled" in str(exc)
            continue
        solved += 1
        assert np.linalg.norm(exact_residual(K, F, q)) <= 1e-10 * np.linalg.norm(F)
    assert solved == 7 and steps


@pytest.mark.parametrize("name", ["bend-uni-ssss-n1-atan", "bend-uni-ssss-n1-atan_sin"])
def test_static_answers_do_not_carry_the_factors_roundoff(name, monkeypatch):
    # xPBTRF rounds differently at different BLAS thread counts; refinement
    # with an accurate residual takes the answer to within an ulp or so of
    # the solution whatever the factor's last bits, while the first iterate
    # moves with them
    _, system = preset_system(name, ("K", "F"))
    expected = fg.solve_static(system)
    factor = solvers._factor

    def perturbed(*args):
        L, d = factor(*args)
        return L * (1.0 + 1e-11 * np.random.default_rng(5).standard_normal(L.shape)), d

    monkeypatch.setattr(solvers, "_factor", perturbed)
    got = fg.solve_static(system)
    assert np.abs(got - expected).max() <= np.finfo(float).eps * np.abs(expected).max()


# ---------------------------------------------------------------------------
# band layout: LAPACK's band storage is column-major, so the solvers' own
# band operands are Fortran-ordered and reach xPBTRF and xSBMV uncopied
# ---------------------------------------------------------------------------

def test_factor_returns_fortran_ordered_bands():
    # the system's bands are Fortran-ordered as assembled; the factor is the
    # one new band a solve makes, built and factored in that order
    _, system = preset_system("vib-atan-n1-r5", ("K", "M"))
    assert system.K.flags.f_contiguous and system.M.flags.f_contiguous
    for L, _ in (solvers._factor(system.K, "A", system.M, 1.0), solvers._factor(system.K, "K")):
        assert L.flags.f_contiguous and L.shape == system.K.shape
        assert not np.shares_memory(L, system.K) and not np.shares_memory(L, system.M)


def test_lanczos_products_read_a_fortran_ordered_band(monkeypatch):
    # scipy's dsbmv copies any other 2-D band into Fortran order on every call
    calls = []
    product = solvers.blas.dsbmv

    def checked(kd, alpha, a, x, **kwargs):
        assert a.flags.f_contiguous
        calls.append(kd)
        return product(kd, alpha, a, x, **kwargs)

    monkeypatch.setattr(solvers.blas, "dsbmv", checked)
    config, system = preset_system("vib10-atan-n1-r10", ("K", "M"))
    assert fg.solve_vibration(system, config.modes).values.size == config.modes
    assert len(calls) > config.modes
