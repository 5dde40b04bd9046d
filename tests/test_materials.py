"""Material model tests: volume fractions, both homogenization schemes,
the six shear shape functions and the integrated section constants."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgplate import materials
from fgplate.errors import DomainError, IntegrationError
from fgplate.materials import (
    MATERIALS,
    FGMSpec,
    Phase,
    Profile,
    Scheme,
    ShearModel,
    effective_props,
    section_constants,
    shear_fn,
    volume_fraction,
)

from oracles import central_diff, section_blocks_bruteforce

AL = MATERIALS["Al"]
AL2O3 = MATERIALS["Al2O3"]
ZRO2 = MATERIALS["ZrO2-1"]

ALL_MODELS = list(ShearModel)


def spec_rom(n, ceramic=AL2O3, metal=AL):
    return FGMSpec(ceramic=ceramic, metal=metal, n=n)


def spec_mt(n, ceramic=ZRO2, metal=AL):
    return FGMSpec(ceramic=ceramic, metal=metal, n=n, scheme=Scheme.MORI_TANAKA)


# ---------------------------------------------------------------------------
# phases and volume fractions
# ---------------------------------------------------------------------------

def test_phase_validation():
    with pytest.raises(ValueError):
        Phase(-1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        Phase(1.0, 0.6, 1.0)
    Phase(427e9, 0.17, 0.0)  # zero density allowed for statics-only phases


@pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_volume_fraction_boundaries(n):
    h = 0.1
    vc, vm = volume_fraction(h / 2, h, spec_rom(n))
    assert vc == pytest.approx(1.0)
    assert vm == pytest.approx(0.0)


def test_volume_fraction_examples():
    h = 0.2
    vc, _ = volume_fraction(0.05, h, spec_rom(0.0))
    assert vc == 1.0
    vc, _ = volume_fraction(0.0, h, spec_rom(2.0))
    assert vc == pytest.approx(0.25)


def test_volume_fraction_metal_power_profile():
    h = 0.2
    spec = FGMSpec(ceramic=ZRO2, metal=AL, n=0.0, profile=Profile.METAL_POWER)
    vc, vm = volume_fraction(0.0, h, spec)
    assert vm == 1.0 and vc == 0.0  # zero power index keeps the metal phase
    spec2 = FGMSpec(ceramic=ZRO2, metal=AL, n=2.0, profile=Profile.METAL_POWER)
    vc, vm = volume_fraction(h / 2, h, spec2)
    assert vc == pytest.approx(1.0)


def test_volume_fraction_monotone_and_complementary():
    h = 0.3
    z = np.linspace(-h / 2, h / 2, 101)
    for n in (0.5, 1.0, 4.0):
        vc, vm = volume_fraction(z, h, spec_rom(n))
        assert np.all(np.diff(vc) >= 0)
        assert_allclose(vc + vm, 1.0, atol=1e-15)
        assert np.all((0 <= vc) & (vc <= 1))


def test_volume_fraction_domain_error():
    with pytest.raises(DomainError):
        volume_fraction(0.11, 0.2, spec_rom(1.0))


# ---------------------------------------------------------------------------
# effective properties
# ---------------------------------------------------------------------------

def test_rule_of_mixture_midpoint():
    E, nu, rho = effective_props(0.0, 0.1, spec_rom(1.0))
    assert E == pytest.approx(225e9)
    assert nu == pytest.approx(0.3)
    assert rho == pytest.approx((3800 + 2707) / 2)


def test_mori_tanaka_pure_phase_fixed_point():
    E, nu, rho = effective_props(0.05, 0.1, spec_mt(1.0))
    assert E == pytest.approx(ZRO2.E)
    assert nu == pytest.approx(ZRO2.nu)
    assert rho == pytest.approx(ZRO2.rho)


def test_mori_tanaka_midpoint_scalar_evaluation():
    # independent transcription of the bulk/shear interpolation at Vc = 1/2
    vc = vm = 0.5
    km = AL.E / (3 * (1 - 2 * AL.nu))
    gm = AL.E / (2 * (1 + AL.nu))
    kc = ZRO2.E / (3 * (1 - 2 * ZRO2.nu))
    gc = ZRO2.E / (2 * (1 + ZRO2.nu))
    f1 = gm * (9 * km + 8 * gm) / (6 * (km + 2 * gm))
    ke = km + (kc - km) * vc / (1 + vm * (kc - km) / (km + 4 * gm / 3))
    ge = gm + (gc - gm) * vc / (1 + vm * (gc - gm) / (gm + f1))
    expected_E = 9 * ke * ge / (3 * ke + ge)
    expected_nu = (3 * ke - 2 * ge) / (2 * (3 * ke + ge))

    E, nu, _ = effective_props(0.0, 0.1, spec_mt(1.0))
    assert E == pytest.approx(expected_E, rel=1e-14)
    assert nu == pytest.approx(expected_nu, rel=1e-14)
    # frozen value of the hand evaluation
    assert E == pytest.approx(114.56e9, rel=1e-3)


def test_mori_tanaka_below_rule_of_mixture():
    h = 0.1
    z = np.linspace(-h / 2, h / 2, 101)
    for n in (0.5, 1.0, 2.0, 5.0):
        rom = FGMSpec(ceramic=ZRO2, metal=AL, n=n)
        mt = FGMSpec(ceramic=ZRO2, metal=AL, n=n, scheme=Scheme.MORI_TANAKA)
        E_rom = np.array([effective_props(zi, h, rom)[0] for zi in z])
        E_mt = np.array([effective_props(zi, h, mt)[0] for zi in z])
        interior = (z > -h / 2) & (z < h / 2)
        assert np.all(E_mt[interior] < E_rom[interior])


def test_effective_modulus_bounded():
    h = 0.1
    z = np.linspace(-h / 2, h / 2, 51)
    for scheme in Scheme:
        for n in (0.0, 0.3, 1.0, 10.0):
            spec = FGMSpec(ceramic=AL2O3, metal=AL, n=n, scheme=scheme)
            E = np.array([effective_props(zi, h, spec)[0] for zi in z])
            assert np.all(E <= AL2O3.E * (1 + 1e-12))
            assert np.all(E >= AL.E * (1 - 1e-12))


def test_schemes_agree_for_homogeneous_section():
    h = 0.1
    for zi in np.linspace(-h / 2, h / 2, 11):
        a = effective_props(zi, h, spec_rom(0.0, ceramic=ZRO2))
        b = effective_props(zi, h, spec_mt(0.0))
        assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# shear shape functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS)
def test_shear_fn_basic_identities(model):
    h = 0.17
    f0, fp0, g0, gp0 = shear_fn(model, 0.0, h)
    assert abs(f0) < 1e-15
    assert g0 == pytest.approx(f0)
    assert gp0 == pytest.approx(fp0 - 1.0)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_traction_free_surfaces(model):
    h = 0.23
    for z in (-h / 2, h / 2):
        _, fp, _, _ = shear_fn(model, z, h)
        assert abs(fp) < 1e-14


@pytest.mark.parametrize("model", ALL_MODELS)
def test_shear_fn_odd(model):
    h = 0.31
    z = np.linspace(0, h / 2, 50)
    f_pos, _, _, _ = shear_fn(model, z, h)
    f_neg, _, _, _ = shear_fn(model, -z, h)
    assert np.abs(f_pos + f_neg).max() < 1e-14


@pytest.mark.parametrize("model", ALL_MODELS)
def test_fprime_matches_finite_difference(model):
    h = 0.2
    step = 1e-7 * h
    z = np.linspace(-h / 2 + 2 * step, h / 2 - 2 * step, 100)
    for zi in z:
        _, fp, _, _ = shear_fn(model, zi, h)
        fd = central_diff(lambda zz: shear_fn(model, zz, h)[0], zi, step)
        assert fp == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_inverse_tan_models_specific_values():
    h = 0.4
    _, fp, _, _ = shear_fn(ShearModel.ATAN, h / 2, h)
    assert fp == pytest.approx((1 - 1) / (1 + 1), abs=1e-16)
    _, fp0, _, _ = shear_fn(ShearModel.ATAN_SIN, 0.0, h)
    assert fp0 == pytest.approx(np.pi / h, rel=1e-15)


# ---------------------------------------------------------------------------
# section constants
# ---------------------------------------------------------------------------

def homogeneous_spec(phase=AL2O3):
    return FGMSpec(ceramic=phase, metal=phase, n=0.0)


def test_homogeneous_membrane_and_bending():
    h = 0.08
    sec = section_constants(homogeneous_spec(), ShearModel.CUBIC, h)
    q11 = AL2O3.E / (1 - AL2O3.nu**2)
    assert sec.A[0, 0] == pytest.approx(q11 * h, rel=1e-13)
    assert sec.D[0, 0] == pytest.approx(q11 * h**3 / 12, rel=1e-13)
    assert np.abs(sec.B).max() < 1e-10 * abs(sec.A[0, 0])
    assert np.abs(sec.E).max() < 1e-10 * abs(sec.A[0, 0])
    assert sec.I1 == pytest.approx(AL2O3.rho * h, rel=1e-13)
    assert abs(sec.I2) < 1e-12 * sec.I1
    assert abs(sec.I4) < 1e-12 * sec.I1


def test_homogeneous_cubic_shear_rigidity_closed_form():
    # integral of (1 - 4 z^2/h^2)^2 over the thickness is 8h/15
    h = 0.05
    sec = section_constants(homogeneous_spec(), ShearModel.CUBIC, h)
    G = AL2O3.E / (2 * (1 + AL2O3.nu))
    assert sec.Ds[0, 0] == pytest.approx(8.0 / 15.0 * G * h, rel=1e-13)
    assert sec.Ds[0, 1] == 0.0


@pytest.mark.parametrize("model", [ShearModel.ATAN, ShearModel.ATAN_SIN])
def test_section_blocks_match_bruteforce(model):
    h = 0.13
    spec = spec_mt(2.0)
    sec = section_constants(spec, model, h)
    blocks, ds, inertias = section_blocks_bruteforce(spec, model, h)
    for name in "ABDEFH":
        got = getattr(sec, name)
        assert_allclose(got, blocks[name], rtol=2e-7, atol=1e-7 * abs(blocks["A"]).max())
    assert_allclose(sec.Ds, ds, rtol=2e-7)
    assert sec.I1 == pytest.approx(inertias[0], rel=1e-7)
    assert sec.I5 == pytest.approx(inertias[4], rel=1e-6, abs=1e-9)


def test_blocks_symmetric_positive_definite():
    sec = section_constants(spec_mt(1.0), ShearModel.ATAN, 0.2)
    for name in "ADH":
        block = getattr(sec, name)
        assert_allclose(block, block.T, atol=0)
        assert np.all(np.linalg.eigvalsh(block) > 0)
    assert np.all(np.linalg.eigvalsh(sec.Ds) > 0)


def test_fractional_power_index_converges():
    sec = section_constants(spec_mt(0.5), ShearModel.ATAN, 0.2)
    blocks, _, _ = section_blocks_bruteforce(spec_mt(0.5), ShearModel.ATAN, 0.2, n=40001)
    assert_allclose(sec.A, blocks["A"], rtol=1e-6)


def test_quadrature_stability_under_doubling(monkeypatch):
    h = 0.11
    spec = spec_rom(10.0)
    sec30 = section_constants(spec, ShearModel.ATAN_SIN, h)
    monkeypatch.setattr(materials, "_BASE_ORDER", 60)
    sec60 = section_constants(spec, ShearModel.ATAN_SIN, h)
    for name in "ABDEFH":
        a, b = getattr(sec30, name), getattr(sec60, name)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max() + 1e-30


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(materials, "_RTOL", 0.0)
    with pytest.raises(IntegrationError):
        section_constants(spec_mt(0.5), ShearModel.ATAN, 0.2)


def loop_section_table(spec, model, h, order):
    """The moment table entry by entry, on the dyadic rule built piece by
    piece: the reference for the broadcast forms."""
    x, w = np.polynomial.legendre.leggauss(order)
    if float(spec.n).is_integer():
        z, wz = 0.5 * h * x, 0.5 * h * w
    else:
        edges = [h * 2.0 ** (-k) for k in range(61)]
        pieces = [(edges[k + 1], edges[k]) for k in range(60)] + [(0.0, edges[60])]
        dist = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in pieces])
        wz = np.concatenate([0.5 * (hi - lo) * w for lo, hi in pieces])
        z = -h / 2 + dist if spec.profile is Profile.CERAMIC_POWER else h / 2 - dist
    E, nu, rho = effective_props(z, h, spec)
    _, fp, g, _ = shear_fn(model, z, h)
    rows = [*materials.plane_stress_moduli(E, nu), rho]
    weights = [np.ones_like(z), z, z * z, g, z * g, g * g, fp * fp]
    return np.array([[np.sum(row * weight * wz) for weight in weights] for row in rows])


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("profile", list(Profile))
@pytest.mark.parametrize("n", [1.0, 0.5])
def test_section_table_is_the_entrywise_loop_bitwise(model, profile, n):
    spec = FGMSpec(ceramic=ZRO2, metal=AL, n=n, scheme=Scheme.MORI_TANAKA, profile=profile)
    for order in (30, 60):
        got = materials._section_table(spec, model, 0.2, order)
        assert got.tobytes() == loop_section_table(spec, model, 0.2, order).tobytes()


def test_gauss_rules_cached_read_only():
    x, w = materials._gauss_legendre(30)
    assert materials._gauss_legendre(30)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    gx, gw = np.polynomial.legendre.leggauss(30)
    assert x.tobytes() == gx.tobytes() and w.tobytes() == gw.tobytes()
    z, wz = materials._thickness_rule(spec_rom(1.0), 0.2, 30)
    assert z.tobytes() == (0.1 * gx).tobytes() and wz.tobytes() == (0.1 * gw).tobytes()
