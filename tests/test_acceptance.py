"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`); the
golden values are published benchmark results for the 11x11 cubic mesh, and
the derived limits come from the independent oracles in oracles.py.
"""
from dataclasses import replace

import numpy as np
import pytest

import fgplate as fg
from fgplate.assembly import BC, UniformLoad
from fgplate.cases import run_case, sweep_case
from fgplate.config import preset_config

from oracles import (
    central_diff,
    clamped_disk_cpt_buckling_coefficient,
    cpt_uniform_center_coefficient,
)

AL = fg.MATERIALS["Al"]


def report_line(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status} ({detail})")
    assert ok, f"criterion {criterion} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. sinusoidal-load bending goldens (three shear models, nine cases each)
# ---------------------------------------------------------------------------

SIN_BENDING_GOLDENS = {
    # (shear, n, a/h) -> (w_bar, sigma_x_bar)
    ("cubic", 1, 4): (0.7284, 0.5796),
    ("cubic", 1, 10): (0.5889, 1.4856),
    ("cubic", 1, 100): (0.5625, 14.9255),
    ("cubic", 4, 4): (1.1599, 0.4433),
    ("cubic", 4, 10): (0.8815, 1.1753),
    ("cubic", 4, 100): (0.8287, 11.8796),
    ("cubic", 10, 4): (1.3908, 0.3249),
    ("cubic", 10, 10): (1.0087, 0.8760),
    ("cubic", 10, 100): (0.9362, 8.8804),
    ("atan", 1, 4): (0.7254, 0.5779),
    ("atan", 1, 10): (0.5885, 1.4849),
    ("atan", 1, 100): (0.5625, 14.9255),
    ("atan", 4, 4): (1.1620, 0.4371),
    ("atan", 4, 10): (0.8820, 1.1727),
    ("atan", 4, 100): (0.8287, 11.8793),
    ("atan", 10, 4): (1.3871, 0.3189),
    ("atan", 10, 10): (1.0084, 0.8735),
    ("atan", 10, 100): (0.9362, 8.8802),
    ("atan_sin", 1, 4): (0.7204, 0.5793),
    ("atan_sin", 1, 10): (0.5878, 1.4854),
    ("atan_sin", 1, 100): (0.5625, 14.9255),
    ("atan_sin", 4, 4): (1.1562, 0.4369),
    ("atan_sin", 4, 10): (0.8812, 1.1726),
    ("atan_sin", 4, 100): (0.8287, 11.8793),
    ("atan_sin", 10, 4): (1.3738, 0.3183),
    ("atan_sin", 10, 10): (1.0064, 0.8732),
    ("atan_sin", 10, 100): (0.9362, 8.8802),
}


def test_criterion_1_sinusoidal_bending_goldens():
    tol = 3e-3
    worst = ("", 0.0)
    for (shear, n, ratio), (w_exp, s_exp) in SIN_BENDING_GOLDENS.items():
        result = run_case(preset_config(f"bend-sin-{shear}-n{n}-r{ratio}"))
        errs = (
            abs(result.report.w_bar - w_exp) / w_exp,
            abs(result.report.sigma_x_bar - s_exp) / s_exp,
        )
        for kind, err in zip(("w", "s"), errs):
            if err > worst[1]:
                worst = (f"{shear} n={n} a/h={ratio} {kind}", err)
    report_line(1, "sinusoidal bending cases", worst[1] <= tol,
                f"worst {worst[0]}: {worst[1] * 100:.3f}% vs 0.3%")


# ---------------------------------------------------------------------------
# 2. uniform-load bending goldens under mixed supports
# ---------------------------------------------------------------------------

def test_criterion_2_uniform_bending_goldens():
    tol = 3e-3
    goldens = {
        "bend-uni-ssss-n1-atan": 0.2948,
        "bend-uni-cccc-ceramic-atan": 0.0710,
        "bend-uni-sfsf-metal-atan": 1.4498,
    }
    worst = ("", 0.0)
    for name, expected in goldens.items():
        result = run_case(preset_config(name))
        err = abs(result.report.w_bar - expected) / expected
        if err > worst[1]:
            worst = (name, err)
    report_line(2, "uniform-load bending cases", worst[1] <= tol,
                f"worst {worst[0]}: {worst[1] * 100:.3f}% vs 0.3%")


# ---------------------------------------------------------------------------
# 3. frequency goldens: fundamentals plus the first ten modes
# ---------------------------------------------------------------------------

def test_criterion_3_frequency_goldens():
    worst = ("", 0.0)
    for name, expected, tol in (
        ("vib-atan_sin-n1-r5", 0.2192, 3e-3),
        ("vib-atan-n0-r5", 0.2462, 3e-3),
    ):
        result = run_case(preset_config(name))
        err = abs(result.report.omega_bar[0] - expected) / expected
        if err / tol > worst[1] / 3e-3:
            worst = (name, err)
        assert err <= tol, f"{name}: {err * 100:.3f}%"

    modes = run_case(preset_config("vib10-atan-n1-r10")).report.omega_bar
    expected_modes = [0.0595, 0.1423, 0.1423, 0.2058, 0.2058,
                      0.2187, 0.2667, 0.2667, 0.2911, 0.3350]
    errs = [abs(w - e) / e for w, e in zip(modes, expected_modes)]
    pair_ok = abs(modes[1] - modes[2]) / modes[1] < 1e-6 and abs(modes[3] - modes[4]) / modes[3] < 1e-6
    ok = max(errs) <= 5e-3 and worst[1] <= 3e-3 and pair_ok
    report_line(3, "vibration cases", ok,
                f"fundamentals worst {worst[1] * 100:.3f}% vs 0.3%; "
                f"ten-mode worst {max(errs) * 100:.3f}% vs 0.5%; degenerate pairs repeated")


# ---------------------------------------------------------------------------
# 4. clamped-disk buckling goldens
# ---------------------------------------------------------------------------

def test_criterion_4_disk_buckling_goldens():
    # the presets use the mapped net, whose area at 11 cubic elements falls
    # short of pi R^2 by 0.58%; its loads are the exact circle's scaled by that
    # deficit (see test_mapped_net_is_the_exact_circle_scaled_by_its_area),
    # and the exact circle's converged loads sit 0.52-0.61% below these goldens
    tol = 3e-3
    goldens = {
        "buck-disk-atan-n0-hr0.1": 14.1859,
        "buck-disk-atan-n2-hr0.2": 20.9728,
        "buck-disk-atan_sin-n5-hr0.25": 21.7268,
    }
    worst = ("", 0.0)
    for name, expected in goldens.items():
        result = run_case(preset_config(name))
        err = abs(result.report.p_cr_bar[0] - expected) / expected
        if err > worst[1]:
            worst = (name, err)
    report_line(4, "disk buckling cases", worst[1] <= tol,
                f"worst {worst[0]}: {worst[1] * 100:.3f}% vs 0.3%")


def mapped_disk_oracle_remainder(elements: int) -> float:
    """Relative gap between the clamped thin disk's fundamental frequency on
    the mapped net and the exact circle's (rational net, same element count)
    scaled by pi R^2 / A, A = sum of F under a unit uniform load on the
    mapped net."""
    omega = {}
    for net in ("mapped", "rational"):
        doc = {"geometry": {"type": "disk", "radius": 0.5, "net": net}, "thickness_ratio": 0.01,
               "degree": 3, "elements": elements,
               "material": {"ceramic": "ZrO2-2", "metal": "Al", "power_index": 0.0},
               "shear_model": "atan", "edge_bcs": "CCCC", "analysis": {"type": "vibrate"}}
        result = run_case(fg.parse_config(doc))
        omega[net] = result.report.omega_bar[0]
        if net == "mapped":
            # the load vector over the control points sums to the load resultant
            area = result.model.patch.load_vector(UniformLoad(1.0)).sum()
    scaled = omega["rational"] * np.pi * 0.5 ** 2 / area
    return abs(omega["mapped"] - scaled) / omega["mapped"]


def test_mapped_net_is_the_exact_circle_scaled_by_its_area():
    # measured remainders 9.6e-5 at 11 and 3.2e-5 at 16 elements; the area
    # deficit itself is 0.58% and 0.29%, so the scaling explains all but a
    # sixtieth (11) and a ninetieth (16) of the gap
    remainders = [mapped_disk_oracle_remainder(m) for m in (11, 16)]
    assert remainders[0] < 2e-4 and remainders[1] < 6e-5
    assert remainders[1] < remainders[0]


@pytest.mark.parametrize("name,bound", [("buck-disk-atan-n0-hr0.1", 1e-4),
                                        ("buck-disk-atan_sin-n5-hr0.25", 1.5e-3)])
def test_mapped_disk_buckling_is_the_exact_circle_scaled_by_its_area(name, bound):
    # criterion 4's preset on the mapped net against the rational net at 16
    # elements scaled by pi R^2 / A; measured remainders 3.0e-5 (thin) and
    # 8.7e-4 (thick, where shear makes p_bar depend on h/R too), against
    # unscaled gaps of 0.57% and 0.49%
    doc = fg.PRESETS[name]
    mapped = run_case(fg.parse_config(doc))
    area = mapped.model.patch.load_vector(UniformLoad(1.0)).sum()
    rational = run_case(fg.parse_config(
        dict(doc, geometry=dict(doc["geometry"], net="rational"), elements=16)))
    got, exact = mapped.report.p_cr_bar[0], rational.report.p_cr_bar[0]
    assert abs(got - exact) / got > 4e-3
    assert abs(got - exact * np.pi * doc["geometry"]["radius"] ** 2 / area) / got < bound


# ---------------------------------------------------------------------------
# 5. mesh convergence of the center deflection
# ---------------------------------------------------------------------------

def test_criterion_5_mesh_convergence():
    sweep = sweep_case(preset_config("converge-mesh"))
    coarse, fine = (report.values[0] for report in sweep.reports[-2:])
    change = abs(fine - coarse) / abs(coarse)
    report_line(5, "mesh convergence 5->25", change <= 1e-3,
                f"finest-pair change {change * 100:.4f}% vs 0.1%")


# ---------------------------------------------------------------------------
# 6. shear-locking freedom at extreme slenderness
# ---------------------------------------------------------------------------

def test_criterion_6_locking_free_thin_limit():
    sweep = sweep_case(preset_config("locking-aspect"))
    got = sweep.reports[-1].w_bar
    cpt = cpt_uniform_center_coefficient()
    err = abs(got - cpt) / cpt
    report_line(6, "thin-limit deflection", err <= 1e-2,
                f"w D/(q a^4) = {got:.6e} vs series {cpt:.6e}: {err * 100:.4f}% vs 1%")


# ---------------------------------------------------------------------------
# 7. property suites (no goldens involved)
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites():
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    # basis identities on both patch kinds
    rng = np.random.default_rng(2024)
    for patch in (fg.make_square_patch(1.0, 1.0, 3, 5), fg.make_disk_patch(0.5, 3, 5)):
        for xi, eta in rng.random((300, 2)) * 0.96 + 0.02:
            b = fg.physical_derivs(patch, xi, eta)
            check("partition of unity", abs(b.R.sum() - 1.0) < 1e-12)
            check("gradient sum", np.abs(b.dRdx.sum(axis=0)).max() < 1e-10)
            check("hessian sum", np.abs(b.d2Rdx2.sum(axis=0)).max() < 1e-6)

    # shear shape functions
    h = 0.2
    for model in fg.ShearModel:
        for z in (-h / 2, h / 2):
            check("traction-free f'", abs(fg.shear_fn(model, z, h)[1]) < 1e-14)
        for z in np.linspace(-0.49 * h, 0.49 * h, 25):
            fp = fg.shear_fn(model, z, h)[1]
            fd = central_diff(lambda t: fg.shear_fn(model, t, h)[0], z, 1e-7 * h)
            check("f' finite difference", abs(fp - fd) <= 1e-6 * max(abs(fd), 1.0))

    # section parity and the cubic-model closed form
    phase = fg.MATERIALS["Al2O3"]
    spec = fg.FGMSpec(ceramic=phase, metal=phase, n=0.0)
    sec = fg.section_constants(spec, fg.ShearModel.CUBIC, h)
    g_mod = phase.E / (2 * (1 + phase.nu))
    check("homogeneous B = 0", np.abs(sec.B).max() < 1e-10 * sec.A[0, 0])
    check("homogeneous E = 0", np.abs(sec.E).max() < 1e-10 * sec.A[0, 0])
    check("homogeneous I2 = I4 = 0", abs(sec.I2) + abs(sec.I4) < 1e-12 * sec.I1)
    check("cubic shear rigidity 8Gh/15", abs(sec.Ds[0, 0] - 8 * g_mod * h / 15) < 1e-12 * sec.Ds[0, 0])

    # assembled-operator properties on a small FGM case
    spec = fg.FGMSpec(ceramic=fg.MATERIALS["ZrO2-1"], metal=AL, n=2.0,
                      scheme=fg.Scheme.MORI_TANAKA)
    patch = fg.make_square_patch(1.0, 1.0, 3, 4)
    section = fg.section_constants(spec, fg.ShearModel.ATAN, 0.2)
    model = fg.PlateModel(patch=patch, section=section, spec=spec,
                          shear=fg.ShearModel.ATAN, edge_bcs=(BC.FREE,) * 4,
                          load=UniformLoad(2.0), prestress=-np.eye(2))
    system = fg.assemble(model, want=("K", "M", "Kg", "F"))
    for label in ("K", "M", "Kg"):
        mat = system.reduce(getattr(system, label))
        check(f"{label} symmetric", np.abs(mat - mat.T).max() <= 1e-12 * np.abs(mat).max())
    vals = np.linalg.eigvalsh(system.reduce(system.K))
    check("7 rigid modes", int(np.sum(np.abs(vals) < 1e-9 * np.abs(vals).max())) == 7)
    check("load sum wb", abs(system.F[2::4].sum() - 2.0) < 1e-10 * 2.0)
    check("load sum ws", abs(system.F[3::4].sum() - 2.0) < 1e-10 * 2.0)

    # eigen-residual bounds on constrained systems
    ssss = fg.PlateModel(patch=patch, section=section, spec=spec,
                         shear=fg.ShearModel.ATAN, edge_bcs=(BC.SIMPLY_SUPPORTED,) * 4,
                         prestress=-np.eye(2))
    sys2 = fg.assemble(ssss, want=("K", "M", "Kg"))
    K, M, G = sys2.reduce(sys2.K), sys2.reduce(sys2.M), -sys2.reduce(sys2.Kg)
    knorm = np.linalg.norm(K, 2)
    vib = fg.solve_vibration(sys2, 5)
    for lam, v in zip(vib.values, vib.vectors.T):
        check("vibration residual",
              np.linalg.norm(K @ v - lam * (M @ v)) <= 1e-8 * knorm * np.linalg.norm(v))
    buck = fg.solve_buckling(sys2, 3)
    for lam, v in zip(buck.values, buck.vectors.T):
        check("buckling residual",
              np.linalg.norm(K @ v - lam * (G @ v)) <= 1e-8 * knorm * np.linalg.norm(v))

    # recovered transverse shear vanishes at the surfaces
    result = run_case(replace(preset_config("bend-sin-atan-n1-r4"), elements=5))
    hloc = result.model.section.h
    prof = fg.stress_profile(result.q, result.model, 0.5, 0.5,
                             [-hloc / 2, 0.0, hloc / 2])
    scale = abs(prof.tau_xz[1])
    check("tau_xz(-h/2) = 0", abs(prof.tau_xz[0]) < 1e-12 * scale)
    check("tau_xz(+h/2) = 0", abs(prof.tau_xz[2]) < 1e-12 * scale)

    # Mori-Tanaka never exceeds the mixture rule for the Al/ZrO2 pair
    hthick = 0.1
    z = np.linspace(-hthick / 2, hthick / 2, 101)
    for n in (0.5, 1.0, 2.0, 5.0):
        rom = fg.FGMSpec(ceramic=fg.MATERIALS["ZrO2-1"], metal=AL, n=n)
        mt = fg.FGMSpec(ceramic=fg.MATERIALS["ZrO2-1"], metal=AL, n=n,
                        scheme=fg.Scheme.MORI_TANAKA)
        e_rom = np.array([fg.effective_props(zi, hthick, rom)[0] for zi in z])
        e_mt = np.array([fg.effective_props(zi, hthick, mt)[0] for zi in z])
        check("MT <= mixture rule", np.all(e_mt <= e_rom * (1 + 1e-12)))

    report_line(7, "property suites", not failures,
                "all identities hold" if not failures else f"failed: {sorted(set(failures))}")


# ---------------------------------------------------------------------------
# 8. thin-limit buckling of the exact-geometry disk
# ---------------------------------------------------------------------------

def test_criterion_8_thin_disk_classical_limit():
    spec = fg.FGMSpec(ceramic=AL, metal=AL, n=0.0, profile=fg.Profile.METAL_POWER)
    radius, h = 0.5, 0.005
    patch = fg.make_disk_patch(radius, 3, 11)
    section = fg.section_constants(spec, fg.ShearModel.ATAN, h)
    model = fg.PlateModel(patch=patch, section=section, spec=spec,
                          shear=fg.ShearModel.ATAN, edge_bcs=(BC.CLAMPED,) * 4,
                          prestress=-np.eye(2))
    system = fg.assemble(model, want=("K", "Kg"))
    res = fg.solve_buckling(system, 1)
    dm = AL.E * h**3 / (12 * (1 - AL.nu**2))
    got = res.values[0] * radius**2 / dm
    target = clamped_disk_cpt_buckling_coefficient()
    err = abs(got - target) / target
    report_line(8, "thin-limit disk buckling", err <= 1e-2,
                f"p_bar = {got:.5f} vs Bessel-root value {target:.5f}: {err * 100:.4f}% vs 1%")
