"""Solver tests: trivial systems, residual bounds, degenerate-pair handling,
cross-checks of the discretization against independent trigonometric-series
solutions, spectral monotonicity properties, systems left unchanged by a
solve, and top-k buckling against the full spectrum."""
import logging

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import fgplate as fg
from fgplate.assembly import BC, GlobalSystem, SinusoidalLoad
from fgplate.errors import MassMatrixError, SolverError, SpectrumError

from oracles import (
    section_blocks_bruteforce,
    series_center_deflection_sin,
    series_frequencies,
)

AL = fg.MATERIALS["Al"]
AL2O3 = fg.MATERIALS["Al2O3"]
ZRO2 = fg.MATERIALS["ZrO2-1"]


def tiny_system(K, M=None, Kg=None, F=None):
    n = np.asarray(K).shape[0]
    return GlobalSystem(n_dofs=n, K=np.asarray(K, float),
                        M=None if M is None else np.asarray(M, float),
                        Kg=None if Kg is None else np.asarray(Kg, float),
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
    # already-flipped positive operator form
    res = fg.solve_buckling(tiny_system([[6.0]], Kg=[[2.0]]), 1)
    assert res.values[0] == pytest.approx(3.0)


def test_buckling_single_dof_compressive_assembly():
    # as assembled from a compressive tensile-positive prestress
    res = fg.solve_buckling(tiny_system([[6.0]], Kg=[[-2.0]]), 1)
    assert res.values[0] == pytest.approx(3.0)


def test_buckling_no_spectrum():
    with pytest.raises(SpectrumError):
        fg.solve_buckling(tiny_system(np.eye(2), Kg=np.zeros((2, 2))), 1)


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
    resid = np.linalg.norm(system.K @ q[free] - system.F[free])
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
    K, M = system.K, system.M
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
    K, M = system.K, system.M
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
    ratio = np.diag(system.K) / np.diag(system.M)
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
    K = system.K
    G = -system.Kg
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
    # the k largest theta of the subset driver against every theta of a full
    # solve, flipped pencil first and the raw sign (tension) as the fallback
    system = _buckling_system(geometry, PRESTRESSES[prestress])
    got = fg.solve_buckling(system, 4).values
    for G in (-system.Kg, system.Kg):
        theta = sla.eigh(G, system.K, eigvals_only=True)
        positive = theta[theta > 1e-12 * np.abs(theta).max()]
        if positive.size:
            break
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
    # 82 free DOFs whose residual reads 2.73e-10, 4.48e-10, 4.65e-11 over the
    # first sweeps: stopping at the first stall raised at 2.73e-10
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
