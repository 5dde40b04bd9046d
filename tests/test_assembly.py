"""Assembly tests: strain-operator sparsity, matrix symmetry, the rigid-body
nullspace of the unconstrained stiffness, K, M and Kg against a point-by-point
reference, load-column sums, the disk load resultant, quadrature consistency
of the load vector, constrained-DOF bookkeeping, the solvability of every
SSFF preset, assembly on the free DOFs against the full matrices, the
pinned in-plane rotation and the mechanism of partly supported squares, the
Gram and load vectors that a patch builds once, and the factored Gram and
load vector of tensor nets against the element sums."""
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fgplate as fg
from fgplate import nurbs
from fgplate.assembly import BC, SinusoidalLoad, UniformLoad
from fgplate.errors import ConfigurationError, SolverError

from oracles import lower_band

AL = fg.MATERIALS["Al"]
AL2O3 = fg.MATERIALS["Al2O3"]


def square_model(n=1.0, p=3, nel=4, a=1.0, r=10.0, load=None, bcs=(BC.FREE,) * 4,
                 prestress=None, shear=fg.ShearModel.ATAN, scheme=fg.Scheme.RULE_OF_MIXTURE):
    h = a / r
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=n, scheme=scheme)
    patch = fg.make_square_patch(a, a, p, nel)
    sec = fg.section_constants(spec, shear, h)
    return fg.PlateModel(patch=patch, section=sec, spec=spec, shear=shear,
                         edge_bcs=bcs, load=load, prestress=prestress)


@pytest.fixture(scope="module")
def free_homogeneous():
    model = square_model(n=0.0, nel=4)
    system = fg.assemble(model, want=("K", "M"))
    return model, system


# ---------------------------------------------------------------------------
# strain operators
# ---------------------------------------------------------------------------

def test_strain_operator_sparsity():
    model = square_model()
    basis = fg.physical_derivs(model.patch, 0.4, 0.3)
    Bm, Bb1, Bb2, Bs, Bg = fg.strain_operators(basis)
    # per control point block: membrane uses only u0/v0, curvatures only wb/ws
    assert np.all(Bm[:, 2::4] == 0) and np.all(Bm[:, 3::4] == 0)
    assert np.all(Bb1[:, 0::4] == 0) and np.all(Bb1[:, 1::4] == 0) and np.all(Bb1[:, 3::4] == 0)
    assert np.all(Bb2[:, 0::4] == 0) and np.all(Bb2[:, 1::4] == 0) and np.all(Bb2[:, 2::4] == 0)
    assert np.all(Bs[:, 0::4] == 0) and np.all(Bs[:, 1::4] == 0) and np.all(Bs[:, 2::4] == 0)
    assert np.all(Bg[:, 0::4] == 0) and np.all(Bg[:, 1::4] == 0)
    # signs: bending rows carry the negative second derivatives
    assert_allclose(Bb1[0, 2::4], -basis.d2Rdx2[:, 0])
    assert_allclose(Bb2[0, 3::4], basis.d2Rdx2[:, 0])
    assert_allclose(Bg[0, 2::4], Bg[0, 3::4])


def test_rigid_translation_and_linear_bending_have_zero_strain():
    model = square_model()
    basis = fg.physical_derivs(model.patch, 0.61, 0.27)
    Bm, Bb1, _, _, _ = fg.strain_operators(basis)
    nact = len(basis.active_indices)
    qe = np.zeros(4 * nact)
    qe[0::4] = 1.0  # constant u0
    assert np.abs(Bm @ qe).max() < 1e-12
    pts = model.patch.net.points.reshape(-1, 2, order="F")[basis.active_indices]
    qe = np.zeros(4 * nact)
    qe[2::4] = pts[:, 0]  # wb = x, linear
    assert np.abs(Bb1 @ qe).max() < 1e-8


# ---------------------------------------------------------------------------
# global matrices
# ---------------------------------------------------------------------------

def test_matrices_symmetric(free_homogeneous):
    _, system = free_homogeneous
    for mat in map(system.reduce, (system.K, system.M)):
        asym = np.abs(mat - mat.T).max()
        assert asym <= 1e-12 * np.abs(mat).max()


def test_mass_positive_definite_on_constrained_model():
    model = square_model(bcs=(BC.SIMPLY_SUPPORTED,) * 4, nel=3)
    system = fg.assemble(model, want=("M",))
    vals = np.linalg.eigvalsh(system.reduce(system.M))
    assert vals.min() > 0


def test_unconstrained_stiffness_has_seven_zero_modes(free_homogeneous):
    # nullspace: u0 const, v0 const, in-plane rotation, wb in {1, x, y}, ws const
    _, system = free_homogeneous
    vals = np.linalg.eigvalsh(system.reduce(system.K))
    scale = np.abs(vals).max()
    assert np.sum(np.abs(vals) < 1e-9 * scale) == 7


def test_unconstrained_fgm_stiffness_has_seven_zero_modes():
    model = square_model(n=2.0, nel=4, scheme=fg.Scheme.MORI_TANAKA)
    system = fg.assemble(model, want=("K",))
    vals = np.linalg.eigvalsh(system.reduce(system.K))
    assert np.sum(np.abs(vals) < 1e-9 * np.abs(vals).max()) == 7


def test_nullspace_vectors_are_zero_energy(free_homogeneous):
    model, system = free_homogeneous
    pts = model.patch.net.points.reshape(-1, 2, order="F")
    n = model.patch.n_points
    K = system.reduce(system.K)
    scale = np.abs(K).max()
    candidates = []
    for comp in (0, 1):  # rigid in-plane translations
        q = np.zeros(4 * n)
        q[comp::4] = 1.0
        candidates.append(q)
    q = np.zeros(4 * n)  # in-plane rotation: u = -y, v = x
    q[0::4] = -pts[:, 1]
    q[1::4] = pts[:, 0]
    candidates.append(q)
    for coeff in (np.ones(n), pts[:, 0], pts[:, 1]):  # wb in span{1, x, y}
        q = np.zeros(4 * n)
        q[2::4] = coeff
        candidates.append(q)
    q = np.zeros(4 * n)  # ws constant
    q[3::4] = 1.0
    candidates.append(q)
    for q in candidates:
        energy = q @ K @ q
        assert abs(energy) < 1e-9 * scale * (q @ q)


def test_homogeneous_membrane_bending_decoupling(free_homogeneous):
    _, system = free_homogeneous
    K = system.reduce(system.K)
    scale = np.abs(K).max()
    inplane = np.concatenate([np.arange(0, K.shape[0], 4), np.arange(1, K.shape[0], 4)])
    transverse = np.concatenate([np.arange(2, K.shape[0], 4), np.arange(3, K.shape[0], 4)])
    coupling = np.abs(K[np.ix_(inplane, transverse)]).max()
    assert coupling < 1e-12 * scale


def test_uniform_load_column_sums():
    q0 = 3.7
    model = square_model(load=UniformLoad(q0), nel=5, a=2.0)
    system = fg.assemble(model, want=("F",))
    area = 4.0
    wb_sum = system.F[2::4].sum()
    ws_sum = system.F[3::4].sum()
    assert wb_sum == pytest.approx(q0 * area, rel=1e-10)
    assert ws_sum == pytest.approx(q0 * area, rel=1e-10)


def test_sinusoidal_load_consistency_with_refined_quadrature():
    # the assembled load column matches an entrywise double-order quadrature
    a, q0 = 1.0, 1.0
    model = square_model(load=SinusoidalLoad(q0, a, a), p=3, nel=5)
    F = fg.assemble(model, want=("F",)).F
    patch = model.patch
    gx, gw = np.polynomial.legendre.leggauss(2 * (patch.degrees[0] + 1))
    F_fine = np.zeros_like(F)
    for (u0, u1), (v0, v1) in patch.elements():
        du, dv = (u1 - u0) / 2, (v1 - v0) / 2
        for ax, aw in zip(gx, gw):
            for bx, bw in zip(gx, gw):
                basis = fg.physical_derivs(patch, (u0 + u1) / 2 + du * ax, (v0 + v1) / 2 + dv * bx)
                wq = aw * bw * du * dv * basis.jacobian_det
                qval = model.load.value(*basis.point)
                F_fine[4 * basis.active_indices + 2] += wq * qval * basis.R
                F_fine[4 * basis.active_indices + 3] += wq * qval * basis.R
    scale = np.abs(F_fine).max()
    assert np.abs(F - F_fine).max() < 1e-8 * scale
    # analytic resultant of the half-sine bump
    assert F[2::4].sum() == pytest.approx(q0 * (2 * a / np.pi) ** 2, rel=1e-8)


@pytest.mark.parametrize("nel", [3, 5])
def test_uniform_load_resultant_on_exact_circle_disk(nel):
    # q R det J is rational on the exact-circle disk, so the load needs more
    # Gauss points than the stiffness to reach the analytic resultant
    q0, radius = 2.5, 1.3
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    shear = fg.ShearModel.ATAN
    model = fg.PlateModel(patch=fg.make_disk_patch(radius, 3, nel),
                          section=fg.section_constants(spec, shear, 0.1 * radius),
                          spec=spec, shear=shear, edge_bcs=(BC.CLAMPED,) * 4,
                          load=UniformLoad(q0))
    F = fg.assemble(model, want=("F",)).F
    exact = q0 * np.pi * radius**2
    assert abs(F[2::4].sum() - exact) < 1e-12 * exact
    assert abs(F[3::4].sum() - exact) < 1e-12 * exact


def test_load_only_assembly_rejects_singular_geometry():
    # F-only assembly skips the matrix sweep, so the load pass must check det J
    model = square_model(load=UniformLoad(1.0), nel=2)
    patch = model.patch
    flat = patch.net.points.copy()
    flat[..., 1] = 0.0  # every control point on the x axis
    flat_patch = fg.Patch(patch.knot_u, patch.knot_v, fg.ControlNet(flat, patch.net.weights))
    with pytest.raises(fg.SingularMappingError):
        fg.assemble(replace(model, patch=flat_patch), want=("F",))


def test_kg_requires_prestress():
    model = square_model()
    with pytest.raises(ConfigurationError):
        fg.assemble(model, want=("K", "Kg"))


def test_load_vector_requires_load():
    model = square_model()
    with pytest.raises(ConfigurationError):
        fg.assemble(model, want=("F",))


def test_assembly_builds_the_gram_of_a_patch_once(monkeypatch):
    grams = []
    original = nurbs._GlobalGram

    def counted(patch):
        grams.append(patch)
        return original(patch)

    monkeypatch.setattr(nurbs, "_GlobalGram", counted)
    model = square_model(nel=2, bcs=_bcs("SSSS"))
    first = fg.assemble(model, want=("K",))
    second = fg.assemble(replace(model, section=square_model(n=3.0).section), want=("K", "M"))
    assert grams == [model.patch]
    assert not np.array_equal(first.K, second.K)


def test_load_vector_is_built_once_and_handed_out_read_only():
    # one entry per control point, which assemble places in the wb and ws slots
    patch = fg.make_square_patch(1.0, 1.0, 3, 3)
    F = patch.load_vector(UniformLoad(2.0))
    with pytest.raises(ValueError, match="read-only"):
        F[:] = -1.0
    again = patch.load_vector(UniformLoad(2.0))
    assert again is F and F.shape == (patch.n_points,)
    assert F.sum() == pytest.approx(2.0, rel=1e-12)
    patch.load_vector(SinusoidalLoad(1.0, 1.0, 1.0))
    # equal loads share one entry
    assert len(patch._loads) == 2


def test_band_map_is_built_once_per_patch_and_edge_set():
    model = square_model(nel=2, bcs=_bcs("SSSS"))
    maps = model.patch.gram.band_maps
    first = fg.assemble(model, want=("K",))
    ((key, entry),) = maps.items()
    second = fg.assemble(replace(model, section=square_model(n=3.0).section), want=("K", "M"))
    assert list(maps) == [key] and maps[key] is entry
    assert not np.array_equal(first.K, second.K)
    with pytest.raises(ValueError, match="read-only"):
        entry[2][0] = 0
    # another edge set gets its own entry, and the K of a fresh patch
    other = replace(model, edge_bcs=_bcs("CSFS"))
    K = fg.assemble(other, want=("K",)).K
    assert len(maps) == 2 and maps[key] is entry
    fresh = replace(other, patch=fg.make_square_patch(1.0, 1.0, 3, 2))
    assert np.array_equal(K, fg.assemble(fresh, want=("K",)).K)
    assert fresh.patch.gram.band_maps.keys() == maps.keys() - {key}


def graded_square():
    """A tensor net with x'' != 0 and y'' != 0, and constant weights of 2."""
    patch = fg.make_square_patch(1.3, 0.7, 3, 5)
    points = patch.net.points.copy()
    x, y = points[..., 0] / 1.3, points[..., 1] / 0.7
    points[..., 0], points[..., 1] = 1.3 * (x + 0.4 * x**2) / 1.4, 0.7 * (y + 0.3 * y**3) / 1.3
    return fg.Patch(patch.knot_u, patch.knot_v, fg.ControlNet(points, 2.0 * patch.net.weights))


TENSOR_NETS = {
    "p2": lambda: fg.make_square_patch(1.3, 0.7, 2, 4),
    "p3": lambda: fg.make_square_patch(1.3, 0.7, 3, 5),
    "p4": lambda: fg.make_square_patch(0.7, 1.3, 4, 3),
    "p3-doubled-knots": lambda: fg.make_square_patch(0.8, 1.9, 3, 4, 2),
    "p4-doubled-knots": lambda: fg.make_square_patch(1.3, 0.7, 4, 3, 2),
    "graded": graded_square,
}


@pytest.mark.parametrize("name", sorted(TENSOR_NETS))
def test_factored_gram_and_load_vector_match_the_element_sums(monkeypatch, name):
    patch = TENSOR_NETS[name]()
    loads = (UniformLoad(2.0), SinusoidalLoad(1.0, 1.3, 0.7))
    assert nurbs._tensor_net(patch) is not None
    factored = nurbs._GlobalGram(patch)
    factored_loads = [nurbs._assemble_load(patch, load) for load in loads]
    monkeypatch.setattr(nurbs, "_tensor_net", lambda patch: None)
    element = nurbs._GlobalGram(patch)
    assert np.array_equal(factored.first, element.first)
    assert np.array_equal(factored.second, element.second)
    # within 1e-13 of each channel pair's largest entry
    scale = np.abs(element.values).max(axis=0)
    assert np.all(np.abs(factored.values - element.values) <= 1e-13 * scale)
    for F, load in zip(factored_loads, loads):
        reference = nurbs._assemble_load(patch, load)
        assert np.abs(F - reference).max() <= 1e-13 * np.abs(reference).max()


def test_disk_nets_take_the_orbit_path(monkeypatch):
    def factored(*args):
        raise AssertionError("a disk took the factored path")

    calls = []
    orbit = nurbs._orbit_values

    def counted(*args):
        calls.append(args[0])
        return orbit(*args)

    monkeypatch.setattr(nurbs, "_tensor_tables", factored)
    monkeypatch.setattr(nurbs, "_orbit_values", counted)
    for make in (fg.make_disk_patch, fg.make_mapped_disk_patch):
        patch = make(0.5, 3, 3)
        assert nurbs._tensor_net(patch) is None
        nurbs._GlobalGram(patch)
        nurbs._assemble_load(patch, UniformLoad(1.0))
        assert len(calls) == 1 and calls[0] is patch
        calls.clear()


DISK_NETS = {"rational": fg.make_disk_patch, "mapped": fg.make_mapped_disk_patch}


def element_gram(monkeypatch, patch):
    """The Gram of a patch summed from the element Grams of every element."""
    with monkeypatch.context() as m:
        m.setattr(nurbs, "_symmetries", lambda patch: None)
        return nurbs._GlobalGram(patch)


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("net", sorted(DISK_NETS))
def test_orbit_gram_matches_the_element_sums(monkeypatch, net, degree):
    for nel in (1, 2, 3, 4, 5, 8, 11):
        patch = DISK_NETS[net](0.7, degree, nel)
        assert nurbs._symmetries(patch) is not None
        orbit, element = nurbs._GlobalGram(patch), element_gram(monkeypatch, patch)
        assert np.array_equal(orbit.first, element.first)
        assert np.array_equal(orbit.second, element.second)
        # within 1e-11 of each channel pair's largest entry (2.6e-12 measured)
        scale = np.abs(element.values).max(axis=0)
        assert np.all(np.abs(orbit.values - element.values) <= 1e-11 * scale), nel


@pytest.mark.parametrize("net", sorted(DISK_NETS))
def test_a_net_moved_off_symmetry_takes_the_element_path(monkeypatch, net):
    patch = DISK_NETS[net](0.7, 3, 4)
    points = patch.net.points.copy()
    points[2, 3, 0] += 1e-6 * 0.7
    moved = fg.Patch(patch.knot_u, patch.knot_v, fg.ControlNet(points, patch.net.weights))
    assert nurbs._symmetries(moved) is None
    reference = element_gram(monkeypatch, moved).values

    def orbit(*args):
        raise AssertionError("a net off symmetry took the orbit path")

    monkeypatch.setattr(nurbs, "_orbit_values", orbit)
    assert np.array_equal(nurbs._GlobalGram(moved).values, reference)


def symmetry_permutation(patch, T):
    """The signed DOF permutation Q of a symmetry T of the square on a disk
    net: (Q q) at point T A is (T (u0, v0), wb, ws) of q at point A."""
    images = nurbs._symmetries(patch)[(nurbs._SQUARE_SYMMETRIES == T).all(axis=(1, 2))][0]
    block = np.eye(4)
    block[:2, :2] = T
    Q = np.zeros((4 * patch.n_points,) * 2)
    for A, image in enumerate(images):
        Q[4 * image:4 * image + 4, 4 * A:4 * A + 4] = block
    return Q


@pytest.mark.parametrize("net", sorted(DISK_NETS))
def test_disk_operators_commute_with_the_square_symmetries(net):
    # exact up to the roundoff of the section contraction: the element sums
    # broke the symmetry by 1.1e-14 to 3.7e-13 of the largest entry
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=1.0)
    shear = fg.ShearModel.ATAN
    model = fg.PlateModel(patch=DISK_NETS[net](0.5, 3, 11),
                          section=fg.section_constants(spec, shear, 0.05),
                          spec=spec, shear=shear, edge_bcs=(BC.FREE,) * 4,
                          prestress=-np.eye(2))
    system = fg.assemble(model, want=("K", "M", "Kg"))
    for T in ([[-1, 0], [0, 1]], [[0, 1], [1, 0]]):
        Q = symmetry_permutation(model.patch, np.array(T))
        for name in ("K", "M", "Kg"):
            A = system.reduce(getattr(system, name))
            assert np.abs(Q @ A @ Q.T - A).max() <= 1e-15 * np.abs(A).max(), (T, name)


def test_free_dofs_are_the_complement_of_the_fixed_ones():
    system = fg.GlobalSystem(n_dofs=10, fixed_dofs=[7, 2, 2, 0])
    assert system.fixed_dofs.tolist() == [0, 2, 7]
    assert system.free_dofs.tolist() == [1, 3, 4, 5, 6, 8, 9]
    assert fg.GlobalSystem(n_dofs=3, fixed_dofs=[]).free_dofs.tolist() == [0, 1, 2]
    model = square_model(nel=3, bcs=_bcs("CSFS"))
    system = fg.assemble(model, want=("K",))
    expected = np.setdiff1d(np.arange(model.n_dofs), system.fixed_dofs)
    assert system.free_dofs.dtype == expected.dtype
    assert np.array_equal(system.free_dofs, expected)


@pytest.mark.parametrize("dof", [-1, 10])
def test_a_fixed_dof_outside_the_system_is_named(dof):
    with pytest.raises(ConfigurationError, match=rf"fixed DOF {dof} is outside"):
        fg.GlobalSystem(n_dofs=10, fixed_dofs=[3, dof])


def test_kg_symmetric_and_semidefinite_for_compression():
    model = square_model(prestress=-np.eye(2), nel=3)
    system = fg.assemble(model, want=("Kg",))
    Kg = system.reduce(system.Kg)
    assert np.abs(Kg - Kg.T).max() <= 1e-12 * np.abs(Kg).max()
    vals = np.linalg.eigvalsh(Kg)
    assert vals.max() <= 1e-10 * np.abs(vals).max()


def pointwise_matrices(model):
    """K, M and Kg summed Gauss point by Gauss point, w det J B^T D B with the
    one-point basis, written apart from the element Gram of the library."""
    patch, sec = model.patch, model.section
    n = model.n_dofs
    K, M, Kg = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    Db = sec.bending_block()
    inertia = np.kron(np.eye(3), sec.inertia_block())
    gu, wu = np.polynomial.legendre.leggauss(patch.degrees[0] + 1)
    gv, wv = np.polynomial.legendre.leggauss(patch.degrees[1] + 1)
    for (u0, u1), (v0, v1) in patch.elements():
        du, dv = (u1 - u0) / 2, (v1 - v0) / 2
        for a, aw in zip(gu, wu):
            for b, bw in zip(gv, wv):
                basis = fg.physical_derivs(patch, (u0 + u1) / 2 + du * a, (v0 + v1) / 2 + dv * b)
                wq = aw * bw * du * dv * basis.jacobian_det
                dofs = (4 * basis.active_indices[:, None] + np.arange(4)).ravel()
                idx = np.ix_(dofs, dofs)
                Bm, Bb1, Bb2, Bs, Bg = fg.strain_operators(basis)
                Bb = np.vstack([Bm, Bb1, Bb2])
                K[idx] += wq * (Bb.T @ Db @ Bb + Bs.T @ sec.Ds @ Bs)
                # displacement in x, y, z at height z: [1, z, g(z)] times a row triple
                R, dR = basis.R, basis.dRdx
                rows = np.zeros((9, dofs.size))
                rows[0, 0::4], rows[1, 2::4], rows[2, 3::4] = R, -dR[:, 0], dR[:, 0]
                rows[3, 1::4], rows[4, 2::4], rows[5, 3::4] = R, -dR[:, 1], dR[:, 1]
                rows[6, 2::4] = rows[6, 3::4] = R
                M[idx] += wq * (rows.T @ inertia @ rows)
                Kg[idx] += wq * (Bg.T @ model.prestress @ Bg)
    return K, M, Kg


@pytest.mark.parametrize("geometry,p", [
    pytest.param("square", 3, id="square"),
    pytest.param("square", 2, id="square-p2"),
    pytest.param("square", 4, id="square-p4"),
    pytest.param("disk", 3, id="disk"),
    pytest.param("mapped disk", 3, id="mapped-disk"),
])
def test_matrices_match_pointwise_reference(geometry, p):
    prestress = np.array([[-1.3, 0.4], [0.4, -0.7]])
    if geometry == "square":
        model = square_model(n=1.5, p=p, nel=3, prestress=prestress)
    else:
        make = fg.make_disk_patch if geometry == "disk" else fg.make_mapped_disk_patch
        spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=2.0)
        shear = fg.ShearModel.ATAN
        model = fg.PlateModel(patch=make(1.0, p, 3),
                              section=fg.section_constants(spec, shear, 0.1), spec=spec,
                              shear=shear, edge_bcs=(BC.CLAMPED,) * 4, prestress=prestress)
    # the full matrices, every boundary entry included, and on the disks the
    # free block that the clamp leaves
    full = fg.assemble(replace(model, edge_bcs=(BC.FREE,) * 4), want=("K", "M", "Kg"))
    system = fg.assemble(model, want=("K", "M", "Kg"))
    free = np.ix_(system.free_dofs, system.free_dofs)
    for name, ref in zip(("K", "M", "Kg"), pointwise_matrices(model)):
        for got, expected in ((full.reduce(getattr(full, name)), ref),
                              (system.reduce(getattr(system, name)), ref[free])):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
            assert np.array_equal(got, got.T)
    again = fg.assemble(model, want=("K", "M", "Kg"))
    for got, repeat in zip((system.K, system.M, system.Kg), (again.K, again.M, again.Kg)):
        assert np.array_equal(got, repeat)


@pytest.mark.parametrize("p,nel", [(3, 11), (2, 5), (4, 3)])
def test_stiffness_blocks_are_exactly_the_coupled_pairs(p, nel):
    # control points i, j couple when |i - j| <= p along each direction: n
    # pairs with i = j and n - k ordered pairs each way at distance k
    model = square_model(p=p, nel=nel)
    n = nel + p
    system = fg.assemble(model, want=("K",))
    K = system.reduce(system.K)
    blocks = np.any(K.reshape(n * n, 4, n * n, 4) != 0, axis=(1, 3))
    assert blocks.sum() == (n + 2 * sum(n - k for k in range(1, p + 1))) ** 2
    index = np.arange(n)
    near = np.abs(index[:, None] - index[None, :]) <= p
    assert np.array_equal(blocks, np.kron(near, near))


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

def test_free_edges_fix_nothing():
    # and name the rigid motions as the mechanism of a system without M
    model = square_model(bcs=(BC.FREE,) * 4)
    system = fg.assemble(model, want=("K",))
    assert system.fixed_dofs.size == 0
    assert "free on every edge" in system.mechanism
    assert fg.assemble(model, want=("K", "M")).mechanism is None


def test_ssss_fixed_count_on_cubic_mesh():
    # 11x11 cubic net is 14x14 control points: 3 DOFs per edge point,
    # with two of the six corner constraints shared between edge pairs
    model = square_model(bcs=(BC.SIMPLY_SUPPORTED,) * 4, p=3, nel=11)
    system = fg.assemble(model, want=("K",))
    assert model.patch.net.shape == (14, 14)
    assert system.fixed_dofs.size == 2 * 14 * 3 + 2 * 14 * 3 - 4 * 2


def test_cccc_fixes_boundary_and_adjacent_ring():
    model = square_model(bcs=(BC.CLAMPED,) * 4, p=3, nel=11)
    system = fg.assemble(model, want=("K",))
    boundary_pts = 4 * 14 - 4
    ring_pts = 4 * 12 - 4
    assert system.fixed_dofs.size == boundary_pts * 4 + ring_pts * 2
    # the wb/ws DOFs of every ring point must be in the set
    fixed = set(system.fixed_dofs.tolist())
    nu = 14
    for i in (1, 12):
        for j in range(1, 13):
            a = i + j * nu
            assert 4 * a + 2 in fixed and 4 * a + 3 in fixed


def test_mixed_edges_follow_spec_pattern():
    # S on a u-edge pins v0 (tangential), not u0
    model = square_model(bcs=(BC.SIMPLY_SUPPORTED, BC.FREE, BC.FREE, BC.FREE), nel=3)
    system = fg.assemble(model, want=("K",))
    nu, nv = model.patch.net.shape
    fixed = set(system.fixed_dofs.tolist())
    for j in range(nv):
        a = 0 + j * nu
        assert 4 * a + 1 in fixed and 4 * a + 2 in fixed and 4 * a + 3 in fixed
        assert 4 * a + 0 not in fixed


def test_ssff_pins_one_in_plane_translation():
    # supports on the u edges leave u0 free: exactly one u0 DOF is pinned, on
    # a free edge, and the reduced stiffness is positive definite
    bcs = (BC.SIMPLY_SUPPORTED, BC.SIMPLY_SUPPORTED, BC.FREE, BC.FREE)
    model = square_model(bcs=bcs, nel=3)
    system = fg.assemble(model, want=("K",))
    nu = model.patch.net.shape[0]
    pinned = system.fixed_dofs[system.fixed_dofs % 4 == 0] // 4
    assert pinned.size == 1 and 0 < pinned[0] < nu - 1
    K = system.reduce(system.K)
    d = 1.0 / np.sqrt(np.diag(K))
    assert np.linalg.eigvalsh(K * d[:, None] * d[None, :]).min() > 1e-8


# w_bar of the SSFF presets whose reduced stiffness happened to factorize
# before the in-plane translation was pinned; the others raised SolverError
SSFF_SOLVED_BEFORE = {
    "bend-uni-sfsf-ceramic-atan": 0.5074424747158991,
    "bend-uni-sfsf-ceramic-atan_sin": 0.5060089758888106,
    "bend-uni-sfsf-metal-atan": 1.4498356420445306,
    "bend-uni-sfsf-metal-atan_sin": 1.4457399311096533,
    "bend-uni-sfsf-n0.5-atan": 0.7588434423373791,
    "bend-uni-sfsf-n0.5-atan_sin": 0.7568480162630875,
}


@pytest.fixture(scope="module")
def ssff_deflections():
    names = sorted(name for name in fg.PRESETS if name.startswith("bend-uni-sfsf-"))
    assert len(names) == 14
    return {name: fg.run_case(fg.preset_config(name)).report.w_bar for name in names}


def test_every_ssff_preset_solves_and_keeps_its_deflection(ssff_deflections):
    for name, expected in SSFF_SOLVED_BEFORE.items():
        assert abs(ssff_deflections[name] - expected) <= 1e-10 * expected, name


@pytest.mark.parametrize("shear", ["atan", "atan_sin"])
def test_ssff_deflection_grows_from_ceramic_to_metal(ssff_deflections, shear):
    labels = ["ceramic", "n0.5", "n1", "n2", "n4", "n8", "metal"]
    w = [ssff_deflections[f"bend-uni-sfsf-{label}-{shear}"] for label in labels]
    assert all(b > a for a, b in zip(w, w[1:])), w


# ---------------------------------------------------------------------------
# assembly on the free DOFs
# ---------------------------------------------------------------------------

def _disk_model(make, bcs=(BC.CLAMPED,) * 4):
    spec = fg.FGMSpec(ceramic=AL2O3, metal=AL, n=2.0)
    shear = fg.ShearModel.ATAN
    return fg.PlateModel(patch=make(1.0, 3, 3), section=fg.section_constants(spec, shear, 0.1),
                         spec=spec, shear=shear, edge_bcs=bcs, load=UniformLoad(1.0),
                         prestress=np.array([[-1.3, 0.4], [0.4, -0.7]]))


def _bcs(code):
    return tuple(BC(c) for c in code)


@pytest.mark.parametrize("geometry,code", [
    pytest.param("square", "SSSS", id="square-SSSS"),
    pytest.param("square", "CCCC", id="square-CCCC"),
    pytest.param("square", "FSSF", id="square-FSSF"),
    pytest.param("disk", "CCCC", id="disk-CCCC"),
    pytest.param("mapped disk", "CCCC", id="mapped-disk-CCCC"),
])
@pytest.mark.parametrize("want", [("K", "Kg", "F"), ("K", "M", "Kg", "F")])
def test_constrained_assembly_is_the_free_block_of_the_full_one(geometry, code, want):
    bcs = _bcs(code)
    if geometry == "square":
        model = square_model(n=1.5, nel=3, bcs=bcs, load=UniformLoad(1.0),
                             prestress=np.array([[-1.3, 0.4], [0.4, -0.7]]))
    else:
        model = _disk_model(fg.make_disk_patch if geometry == "disk"
                            else fg.make_mapped_disk_patch, bcs)
    system = fg.assemble(model, want=want)
    full = fg.assemble(replace(model, edge_bcs=(BC.FREE,) * 4), want=want)
    assert full.fixed_dofs.size == 0 and system.fixed_dofs.size > 0
    free = np.ix_(system.free_dofs, system.free_dofs)
    for name in set(want) - {"F"}:
        got, ref = system.reduce(getattr(system, name)), full.reduce(getattr(full, name))[free]
        assert got.shape == (system.free_dofs.size,) * 2
        assert np.array_equal(got, ref), name
    assert np.array_equal(system.F, full.F)


@pytest.mark.parametrize("geometry,code", [
    pytest.param("square", "SSSS", id="square-SSSS"),
    pytest.param("square", "FFFF", id="square-FFFF"),
    pytest.param("disk", "CCCC", id="disk-CCCC"),
    pytest.param("mapped disk", "CCCC", id="mapped-disk-CCCC"),
])
def test_bandwidth_is_that_of_the_nonzeros_of_k(geometry, code):
    # each band is tight: its last row, the half-bandwidth kd = K.shape[0] - 1
    # that the solvers factorize with, holds a nonzero of K, and M and Kg
    # share the band; an FGM section couples every component
    if geometry == "square":
        model = square_model(n=1.5, nel=3, bcs=_bcs(code),
                             prestress=np.array([[-1.3, 0.4], [0.4, -0.7]]))
    else:
        model = _disk_model(fg.make_disk_patch if geometry == "disk"
                            else fg.make_mapped_disk_patch, _bcs(code))
    system = fg.assemble(model, want=("K", "M", "Kg"))
    nf = system.free_dofs.size
    assert system.K.shape[1] == nf and np.any(system.K[-1] != 0.0)
    rows, cols = np.nonzero(system.reduce(system.K))
    assert system.K.shape[0] - 1 == np.abs(rows - cols).max()
    for name in ("M", "Kg"):
        assert getattr(system, name).shape == system.K.shape, name


def test_reduce_passes_only_free_size_matrices():
    # reduce unpacks a band over the free DOFs, entry (i, j) from
    # band[|i - j|, min(i, j)], and refuses a band over the full DOF set
    model = square_model(nel=2, bcs=_bcs("SSSS"))
    system = fg.assemble(model, want=("K",))
    K = system.reduce(system.K)
    assert K.shape == (system.free_dofs.size,) * 2 and np.array_equal(K, K.T)
    assert np.array_equal(lower_band(K, system.K.shape[0] - 1), system.K)
    full = fg.assemble(replace(model, edge_bcs=(BC.FREE,) * 4), want=("K",))
    with pytest.raises(ConfigurationError, match="free DOFs"):
        system.reduce(full.K)

ADJACENT_SUPPORTS = ["FSSF", "FSFS", "SFFS", "SFSF"]


def _far_pin(model, component):
    """The middle control point of the edge opposite the supported u edge
    (component 1) or v edge (component 0), as a DOF."""
    supported = [edge for edge, bc in enumerate(model.edge_bcs) if bc is not BC.FREE]
    edge = 1 - supported[0] if component == 1 else 5 - supported[1]
    nu, nv = model.patch.net.shape
    i, j = {0: (0, nv // 2), 1: (nu - 1, nv // 2), 2: (nu // 2, 0), 3: (nu // 2, nv - 1)}[edge]
    return 4 * (i + j * nu) + component


@pytest.mark.parametrize("code", ADJACENT_SUPPORTS)
def test_adjacent_supports_pin_the_in_plane_rotation_without_inertia(code):
    # the rotation about the shared corner is pinned through one v0 on the
    # opposite u edge for K, Kg and F, and left free, a rigid mode, with M
    model = square_model(nel=3, bcs=_bcs(code))
    unpinned = set(fg.edge_constraints(model, inertia=True)[0].tolist())
    system = fg.assemble(model, want=("K",))
    assert set(system.fixed_dofs.tolist()) - unpinned == {_far_pin(model, 1)}
    assert set(fg.assemble(model, want=("K", "M")).fixed_dofs.tolist()) == unpinned
    K = system.reduce(system.K)
    d = 1.0 / np.sqrt(np.diag(K))
    assert np.linalg.eigvalsh(K * d[:, None] * d[None, :]).min() > 1e-8
    # the arcs of the disks hold the rotation, so nothing more is pinned there
    for make in (fg.make_disk_patch, fg.make_mapped_disk_patch):
        disk = _disk_model(make, model.edge_bcs)
        assert np.array_equal(fg.edge_constraints(disk)[0],
                              fg.edge_constraints(disk, inertia=True)[0])


def _pinned_elsewhere(model, want):
    """The system of the model with the rotation pinned through u0 on the
    edge opposite the supported v edge instead."""
    fixed = np.union1d(fg.edge_constraints(model, inertia=True)[0], [_far_pin(model, 0)])
    full = fg.assemble(replace(model, edge_bcs=(BC.FREE,) * 4), want=want)
    free = np.setdiff1d(np.arange(model.n_dofs), fixed)
    return fg.GlobalSystem(n_dofs=model.n_dofs, fixed_dofs=fixed, F=full.F,
                           **{name: lower_band(full.reduce(getattr(full, name))[np.ix_(free, free)])
                              for name in set(want) - {"F"}})


@pytest.mark.parametrize("code", ADJACENT_SUPPORTS)
def test_pinned_rotation_moves_neither_deflection_nor_buckling_load(code):
    # pinning the free rotation through another DOF gives the same w and the
    # same buckling loads: the rotation carries no strain, load or prestress
    model = square_model(nel=3, bcs=_bcs(code), load=UniformLoad(1.0),
                         prestress=-np.eye(2))
    q = fg.solve_static(fg.assemble(model, want=("K", "F")))
    q_other = fg.solve_static(_pinned_elsewhere(model, ("K", "F")))
    w, w_other = q[2::4] + q[3::4], q_other[2::4] + q_other[3::4]
    assert np.abs(w - w_other).max() <= 1e-9 * np.abs(w).max()
    loads = fg.solve_buckling(fg.assemble(model, want=("K", "Kg")), 4).values
    loads_other = fg.solve_buckling(_pinned_elsewhere(model, ("K", "Kg")), 4).values
    assert_allclose(loads, loads_other, rtol=1e-9)


@pytest.mark.parametrize("code", ADJACENT_SUPPORTS)
def test_free_rotation_with_a_mass_matrix_stops_static_and_buckling(code):
    # with M the rotation is left free, a rigid mode: vibration reports it as
    # a zero frequency, and a static or buckling solve of the same system
    # raises before any factorization instead of solving a singular K
    model = square_model(nel=3, bcs=_bcs(code), load=UniformLoad(1.0),
                         prestress=-np.eye(2))
    assert fg.assemble(model, want=("K", "Kg", "F")).mechanism is None
    with_mass = fg.assemble(model, want=("K", "M", "Kg", "F"))
    assert "assemble without M" in with_mass.mechanism
    with pytest.raises(SolverError, match="assemble without M"):
        fg.solve_buckling(with_mass, 2)
    with pytest.raises(SolverError, match="assemble without M"):
        fg.solve_static(with_mass)
    assert fg.solve_vibration(with_mass, 1).values[0] == 0.0


def test_free_translation_with_a_mass_matrix_stops_static_and_buckling():
    # SSFF leaves u0 free: pinned for K, Kg and F, left free with M, where a
    # pin made a spurious in-plane mode (3,622.6 rad/s at a/h = 5)
    model = square_model(r=5.0, bcs=_bcs("SSFF"), load=UniformLoad(1.0), prestress=-np.eye(2))
    assert fg.assemble(model, want=("K", "Kg", "F")).mechanism is None
    with_mass = fg.assemble(model, want=("K", "M", "Kg", "F"))
    assert "translation u0" in with_mass.mechanism
    with pytest.raises(SolverError, match="translation u0"):
        fg.solve_static(with_mass)
    with pytest.raises(SolverError, match="translation u0"):
        fg.solve_buckling(with_mass, 2)
    omegas = fg.solve_vibration(with_mass, 3).frequencies()
    assert omegas[0] == 0.0
    assert_allclose(omegas[1:], [4200.3, 6821.0], rtol=2e-5)


def test_constraints_that_fix_every_deflection_dof_are_a_mechanism():
    # CCCC on one cubic element fixes every wb and ws: without inertia no
    # static or buckling solve has an answer; with inertia it is no mechanism
    model = square_model(p=3, nel=1, bcs=_bcs("CCCC"), load=UniformLoad(1.0),
                         prestress=-np.eye(2))
    fixed, mechanism = fg.edge_constraints(model)
    assert set(range(2, model.n_dofs, 4)) | set(range(3, model.n_dofs, 4)) <= set(fixed.tolist())
    assert mechanism == ("the plate cannot deflect: no free deflection DOF (wb, ws) remains "
                         "after the edge constraints")
    assert fg.edge_constraints(model, inertia=True)[1] is None
    for want, solve in ((("K", "F"), fg.solve_static),
                        (("K", "Kg"), lambda system: fg.solve_buckling(system, 2))):
        with pytest.raises(SolverError, match="no free deflection DOF"):
            solve(fg.assemble(model, want=want))
    # a second element leaves interior deflection DOFs free
    two = replace(model, patch=fg.make_square_patch(1.0, 1.0, 3, 2))
    assert fg.edge_constraints(two)[1] is None


def test_single_straight_support_is_a_mechanism_only_on_the_square():
    for code in ("SFFF", "FSFF", "FFSF", "FFFS"):
        bcs = _bcs(code)
        mechanism = fg.edge_constraints(square_model(nel=2, bcs=bcs))[1]
        assert mechanism is not None and "mechanism" in mechanism
        # an arc of the disk holds w against the rotation about a line
        for make in (fg.make_disk_patch, fg.make_mapped_disk_patch):
            assert fg.edge_constraints(_disk_model(make, bcs))[1] is None
    assert fg.edge_constraints(square_model(nel=2, bcs=_bcs("SSFF")))[1] is None
