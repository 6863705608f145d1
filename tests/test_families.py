"""Density families: closed-form values, Jacobians, starting points."""
import dataclasses
import gc
import weakref

import numpy as np
import pytest

import momentropy as mp
from momentropy import families as families_module
from momentropy import problems as pr
from momentropy.calculus import (
    _SERIES_CUTOFF, _divided_difference_exp, eigh_hermitian, hermitian_part,
)
from momentropy.errors import DualStartNotFound, PositivityError
from momentropy.families import _evaluate
from momentropy.operator import RangeBasis, _adjoint_of_stack, _dual_coords


def _single_node_op(m):
    eye = np.eye(m, dtype=complex)[None]
    return mp.build_operator(mp.discrete_grid(1), mp.kernel_samples(eye, eye))


def _feasible_perturbed_start(op, family, rng, scale=0.2):
    start = mp.default_dual_start(op, family)
    step = rng.standard_normal(op.d)
    s = scale
    for _ in range(60):
        lam = mp.dual_from_coords(op, start.coords + s * step)
        if not family.is_inverse_kind or mp.is_dual_feasible(op, lam)[0]:
            return lam
        s *= 0.5
    raise AssertionError("could not build a feasible perturbed point")


# ---------------------------------------------------------------------------
# closed-form densities on a single node with identity kernels


def test_rational_density_inverts_the_adjoint_field():
    op = _single_node_op(1)
    lam = mp.dual_from_coords(op, np.array([0.5]))
    rho = mp.family_density(op, lam, mp.rational_family())
    assert rho[0, 0, 0] == pytest.approx(2.0, abs=1e-13)

    op2 = _single_node_op(2)
    target = np.diag([0.5, 0.25]).astype(complex)
    lam2 = mp.dual_from_matrix(op2, target)
    rho2 = mp.family_density(op2, lam2, mp.rational_family())
    assert np.allclose(rho2[0], np.diag([2.0, 4.0]), rtol=0, atol=1e-12)


def test_exponential_density_at_zero_dual_point():
    op = _single_node_op(2)
    lam = mp.dual_from_coords(op, np.zeros(op.d))
    rho = mp.family_density(op, lam, mp.exponential_family())
    assert np.allclose(rho[0], np.eye(2) / np.e, rtol=0, atol=1e-13)


def test_weighted_families_reduce_to_scaled_reference_at_zero(rng):
    op = _single_node_op(2)
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = (raw @ raw.conj().T + 0.5 * np.eye(2))[None]
    lam0 = mp.dual_from_coords(op, np.zeros(op.d))
    for factory in (mp.weighted_exponential_family, mp.prior_exponential_family):
        rho = mp.family_density(op, lam0, factory(sigma))
        assert np.allclose(rho[0], sigma[0] / np.e, rtol=1e-12, atol=1e-12)
    rho_wr = mp.family_density(op, mp.dual_from_matrix(op, 2.0 * np.eye(2, dtype=complex)),
                               mp.weighted_rational_family(sigma=sigma))
    assert np.allclose(rho_wr[0], sigma[0] / 2.0, rtol=1e-12, atol=1e-12)


def test_weighted_rational_is_a_congruence_of_the_inverse(rng):
    op = _single_node_op(2)
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = (raw @ raw.conj().T + 0.5 * np.eye(2))[None]
    family = mp.weighted_rational_family(sigma=sigma)
    lam = mp.dual_from_matrix(op, np.array([[1.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.9]]))
    rho = mp.family_density(op, lam, family)
    phi = family.phi[0]
    manual = phi @ np.linalg.inv(lam.matrix) @ phi.conj().T
    assert np.allclose(rho[0], manual, rtol=1e-12, atol=1e-12)


def test_prior_and_weighted_exponential_agree_only_when_commuting(rng):
    op = _single_node_op(2)
    diag_sigma = np.diag([0.5, 2.0]).astype(complex)[None]
    lam_diag = mp.dual_from_matrix(op, np.diag([0.3, 0.7]).astype(complex))
    rho_w = mp.family_density(op, lam_diag, mp.weighted_exponential_family(diag_sigma))
    rho_p = mp.family_density(op, lam_diag, mp.prior_exponential_family(diag_sigma))
    assert np.allclose(rho_w, rho_p, rtol=1e-12, atol=1e-12)

    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = (raw @ raw.conj().T + 0.5 * np.eye(2))[None]
    lam = mp.dual_from_matrix(op, np.array([[1.0, 0.4 - 0.2j], [0.4 + 0.2j, 0.3]]))
    rho_w = mp.family_density(op, lam, mp.weighted_exponential_family(sigma))
    rho_p = mp.family_density(op, lam, mp.prior_exponential_family(sigma))
    assert np.linalg.norm(rho_w - rho_p) > 1e-3  # orderings differ off the commutant


def test_family_density_positivity_guard_names_the_node():
    op = _single_node_op(1)
    lam = mp.dual_from_coords(op, np.zeros(1))
    with pytest.raises(PositivityError) as err:
        mp.family_density(op, lam, mp.rational_family())
    assert err.value.node == 0


# ---------------------------------------------------------------------------
# moment image and Jacobians


def test_h_map_agrees_with_forward_operator_on_density(array_problem, rng):
    # h_map assembles the evaluation's range coordinates; apply_L integrates
    # the density against the kernels
    op, _rho, _R = array_problem
    for name in ("rational", "exponential"):
        family = mp.family_from_name(name)
        lam = _feasible_perturbed_start(op, family, rng)
        h = mp.h_map(op, lam, family)
        direct = mp.apply_L(op, mp.family_density(op, lam, family))
        assert np.linalg.norm(h - direct) <= 1e-12 * max(1.0, np.linalg.norm(direct))


def test_scalar_jacobian_values_and_orientation():
    op = _single_node_op(1)
    # inverse kind: h(lam) = 1/lam, slope -1/lam^2 = -4 at lam = 1/2
    flow = mp.flow_jacobian(op, mp.dual_from_coords(op, np.array([0.5])), mp.rational_family())
    assert flow[0, 0] == pytest.approx(-4.0, rel=1e-12)
    # exponential kind: h(lam) = exp(-lam)/e, slope -1/e at lam = 0
    flow2 = mp.flow_jacobian(op, mp.dual_from_coords(op, np.zeros(1)), mp.exponential_family())
    assert flow2[0, 0] == pytest.approx(-1.0 / np.e, rel=1e-12)


def _all_families_for(op, grid):
    sigma = pr.random_smooth_matrix_density(grid, op.kernels.left.shape[2], seed=9) \
        if grid.dim else None
    out = [mp.rational_family(), mp.exponential_family()]
    if sigma is not None:
        out += [mp.weighted_rational_family(sigma=sigma),
                mp.weighted_exponential_family(sigma),
                mp.prior_exponential_family(sigma)]
    return out


def test_flow_jacobian_matches_finite_differences_all_families(array_problem, rng):
    op, _rho, _R = array_problem
    eps = 1e-6
    for family in _all_families_for(op, op.grid):
        lam = _feasible_perturbed_start(op, family, rng, scale=0.1)
        jac = mp.flow_jacobian(op, lam, family)
        fd = np.empty_like(jac)
        for i in range(op.d):
            step = np.zeros(op.d)
            step[i] = eps
            hp = mp.h_map(op, mp.dual_from_coords(op, lam.coords + step), family)
            hm = mp.h_map(op, mp.dual_from_coords(op, lam.coords - step), family)
            fd[:, i] = op.basis.coords_of((hp - hm) / (2 * eps))
        assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd), family.kind


def test_flow_jacobian_is_negative_definite_on_the_feasible_set(array_problem, rng):
    op, _rho, _R = array_problem
    for family in _all_families_for(op, op.grid):
        for _ in range(3):
            lam = _feasible_perturbed_start(op, family, rng, scale=0.15)
            jac = mp.flow_jacobian(op, lam, family)
            sym = 0.5 * (jac + jac.T)
            assert np.max(np.linalg.eigvalsh(sym)) < 0.0, family.kind
            assert np.linalg.norm(jac - jac.T) <= 1e-10 * np.linalg.norm(jac)


def test_default_start_reaches_the_identity_adjoint_field(array_problem):
    op, _rho, _R = array_problem
    start = mp.default_dual_start(op, mp.rational_family())
    field = mp.apply_L_adjoint(op, start.matrix)
    assert np.max(np.abs(field[:, 0, 0] - 1.0)) <= 1e-10
    start_exp = mp.default_dual_start(op, mp.exponential_family())
    assert np.array_equal(start_exp.coords, np.zeros(op.d))


@pytest.mark.parametrize("size", [1.0, 1e-60, 1e-105, 1e100])
def test_the_identity_dual_does_not_depend_on_the_kernel_size(size):
    # lam_I = 1 / size^2; the Gram matrix of the adjoint images, which the
    # least-squares solve never forms, would underflow at 1e-105 and
    # overflow at 1e100
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    kernels = np.full((grid.node_count, 1, 1), size, dtype=complex)
    op = mp.build_operator(grid, mp.kernel_samples(kernels, kernels))
    coords, eigs = op.identity_dual
    assert eigs.min() == pytest.approx(1.0, rel=1e-12)
    field = mp.apply_L_adjoint(op, mp.dual_from_coords(op, coords).matrix)
    assert np.max(np.abs(field - 1.0)) <= 1e-12
    start = mp.default_dual_start(op, mp.rational_family())
    assert np.array_equal(start.coords, coords)
    assert abs(coords[0]) * size ** 2 == pytest.approx(1.0, rel=1e-12)


def test_default_start_raises_when_identity_is_unreachable():
    # kernels whose adjoint field flips sign between the two nodes: the
    # least-squares fit of the constant-one field lands at zero, which is
    # not strictly feasible
    left = np.ones((2, 1, 1), dtype=complex)
    right = np.ones((2, 1, 1), dtype=complex)
    right[1] = -1.0
    op = mp.build_operator(mp.discrete_grid(2), mp.kernel_samples(left, right))
    with pytest.raises(DualStartNotFound):
        mp.default_dual_start(op, mp.rational_family())


# ---------------------------------------------------------------------------
# the evaluation against its einsum formulation


def _reference_evaluate(op, lam, family):
    """Density, h coordinates, flow Jacobian and min eigenvalue of L*(lam),
    by the nodewise einsum formulas, with the field built from the dual matrix."""
    if isinstance(lam, mp.DualVariable):
        lam = lam.matrix
    elif np.ndim(lam) == 1:
        lam = op.basis.assemble(lam)
    a_field = mp.apply_L_adjoint(op, lam)
    x, w, phi = op.adjoint_basis, op.grid.weights, family.phi
    phi_h = None if phi is None else np.conj(np.swapaxes(phi, -1, -2))
    if family.is_inverse_kind:
        eigs_a, u = eigh_hermitian(a_field)
        floor = 1e-10 * max(float(np.mean(eigs_a)), 0.0)
        if not float(np.min(eigs_a)) > floor:
            raise PositivityError("reference", min_eig=float(np.min(eigs_a)),
                                  node=int(np.argmin(np.min(eigs_a, axis=1))))
        p = (u * (1.0 / eigs_a)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
        if phi is not None:
            p = phi @ p
        density = hermitian_part(p if phi is None else p @ phi_h)
        t = np.einsum("nab,jnbc,ndc->jnad", p, x, np.conj(p), optimize=True)
        jac = -np.real(np.einsum("inab,jnba,n->ij", x, t, w, optimize=True))
    else:
        exponent = -a_field if family.log_sigma is None else family.log_sigma - a_field
        ew, u = eigh_hermitian(exponent)
        eigs_a = -ew if family.log_sigma is None else eigh_hermitian(a_field)[0]
        core = (u * (np.exp(ew) / np.e)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
        density = hermitian_part(core if phi is None else phi @ core @ phi_h)
        y = np.einsum("nba,inbc,ncd->inad", np.conj(u), x, u, optimize=True)
        z = y if phi is None else np.einsum("nba,inbc,ncd->inad", np.conj(u), phi_h @ x @ phi, u,
                                            optimize=True)
        jac = (-1.0 / np.e) * np.real(np.einsum(
            "nab,inab,jnab,n->ij", _divided_difference_exp(ew), np.conj(z), y, w, optimize=True))
    h_coords = np.real(np.einsum("inab,nba,n->i", x, density, w, optimize=True))
    return density, h_coords, jac, float(np.min(eigs_a))


def _branch_operator(rng):
    """An m = 2 operator with kernels G[n] (left) and G[n]* (right), so that
    L*(lam)[n] = G[n]* lam G[n], and the Hermitian units as its range basis
    in place of the computed one: at a diagonal lam the field is then exactly
    diagonal (b = 0) wherever G[n] is diagonal.  At lam = I the nodes are the
    identity (coincident eigenvalues), diag(4, 1) (the swap branch),
    eigenvalues about 2e-5 apart (b = 0) and 6e-5 apart (b != 0), both below
    the divided-difference series cutoff, and two generic matrices."""
    gen = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    g = np.stack([np.eye(2), 1.5 * np.eye(2), np.diag([2.0, 1.0]), np.diag([1.0, 1.0 + 1e-5]),
                  np.array([[1.0, 3e-5], [0.0, 1.0]]), np.eye(2) + 0.3 * gen[0],
                  np.eye(2) + 0.3 * gen[1]]).astype(complex)
    op = mp.build_operator(mp.discrete_grid(len(g)),
                           mp.kernel_samples(g, np.conj(g).swapaxes(1, 2)))
    root_half = np.sqrt(0.5)
    units = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, root_half], [root_half, 0]],
                      [[0, -1j * root_half], [1j * root_half, 0]]], dtype=complex)
    assert op.d == len(units)
    return dataclasses.replace(op, basis=RangeBasis(units, _adjoint_of_stack(op.kernels, units)))


def _oracle_cases():
    rng = np.random.default_rng(5)
    statecov = pr.state_covariance_problem(
        pr.random_state_model(n=4, m=2, seed=0),
        mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4))
    # m = 3: the complex path at an odd m, where the inverse families evaluate;
    # its points come from a generator of its own, which leaves the other
    # cases' draws alone
    statecov3 = pr.state_covariance_problem(
        pr.random_state_model(n=4, m=3, seed=0),
        mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4))
    ptrace = pr.partial_trace_problem(2, 2)
    raw = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    ptrace_sigma = raw @ np.conj(raw).swapaxes(1, 2) + 0.5 * np.eye(4)
    for op, sigma, case_rng in ((pr.nonequispaced_array_problem(), None, rng),
                                (statecov, None, rng),
                                (statecov3, None, np.random.default_rng(6)),
                                (ptrace, ptrace_sigma, rng)):
        if sigma is None:
            sigma = pr.random_smooth_matrix_density(op.grid, op.m, seed=9)
        for name in mp.FAMILY_KINDS:
            family = mp.family_from_name(name, sigma=sigma)
            # L*(lam) has rank 2 at both nodes of the partial trace for every
            # lam, so an inverse family gives up there
            below_floor = mp.dual_from_matrix(op, np.eye(2, dtype=complex)) \
                if family.is_inverse_kind and op.m == 4 else None
            yield op, family, None, below_floor, case_rng
    # an outer factor that is not Hermitian: rho = phi A^-1 phi*, which differs
    # from the sigma^(1/2) weighting of the same sigma = phi phi* at m > 1
    noise = rng.standard_normal((statecov.node_count, 2, 2)) \
        + 1j * rng.standard_normal((statecov.node_count, 2, 2))
    phi = np.triu(noise, 1) + np.eye(2) * (1.0 + rng.random((statecov.node_count, 1, 1)))
    family = mp.weighted_rational_family(phi=phi)
    assert np.array_equal(family.sigma, phi @ np.conj(phi).swapaxes(1, 2))
    yield statecov, family, None, None, rng
    # m = 1: a factor with a phase; m = 1 and 2: a point whose adjoint field
    # dips below the dual floor at some nodes
    array = pr.nonequispaced_array_problem()
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, (array.node_count, 1, 1)))
    phi = phase * (0.5 + rng.random((array.node_count, 1, 1)))
    yield array, mp.weighted_rational_family(phi=phi), None, None, rng
    for op in (array, statecov):
        start = mp.default_dual_start(op, mp.rational_family())
        tilted = mp.dual_from_coords(op, start.coords + 2.0 * rng.standard_normal(op.d))
        assert not mp.is_dual_feasible(op, tilted)[0]
        yield op, mp.rational_family(), None, tilted, rng
    # m = 2 at points whose fields take the closed form's special branches,
    # unweighted and with X~ = phi* X phi != X
    branch = _branch_operator(rng)
    raw = rng.standard_normal((branch.node_count, 2, 2)) \
        + 1j * rng.standard_normal((branch.node_count, 2, 2))
    branch_sigma = raw @ np.conj(raw).swapaxes(1, 2) + 0.5 * np.eye(2)
    gaps = np.diff(eigh_hermitian(mp.apply_L_adjoint(branch, np.eye(2)))[0], axis=1)[:, 0]
    assert gaps[0] == 0.0 and 0.0 < gaps[3] < _SERIES_CUTOFF and 0.0 < gaps[4] < _SERIES_CUTOFF
    for diagonal in ([1.0, 1.0], [1.2, 0.9]):
        point = mp.dual_from_coords(branch, np.array(diagonal + [0.0, 0.0]))
        field = mp.apply_L_adjoint(branch, point.matrix)
        assert np.all(field[:4, 0, 1] == 0.0) and np.all(field[4:, 0, 1] != 0.0)
        for name in ("rational", "exponential", "weighted_rational", "weighted_exponential"):
            yield branch, mp.family_from_name(name, sigma=branch_sigma), point, None, rng


def test_evaluation_matches_its_einsum_formulation():
    # m = 1 (array), 2 (state covariance and the closed form's branches,
    # weighted too), 3 (state covariance) and 4 (partial trace), every
    # family, the dual point given to the public evaluations as coordinates,
    # as a DualVariable and as a matrix; below the inverse families' floor
    # both give up at the same node
    for op, family, point, below_floor, rng in _oracle_cases():
        label = "%s m=%d" % (family.kind, op.m)
        if below_floor is not None:
            with pytest.raises(PositivityError) as ref:
                _reference_evaluate(op, below_floor, family)
            with pytest.raises(PositivityError) as got:
                mp.flow_jacobian(op, below_floor, family)
            assert got.value.node == ref.value.node, label
            continue
        lam = point or _feasible_perturbed_start(op, family, rng, scale=0.3)
        # L* vanishes on the orthogonal complement of the range, so a matrix
        # with a component there must give the same evaluation
        noise = rng.standard_normal(lam.matrix.shape) + 1j * rng.standard_normal(lam.matrix.shape)
        off_range = noise - op.basis.assemble(op.basis.coords_of(noise))
        off_range *= np.linalg.norm(lam.matrix) / np.linalg.norm(off_range)
        for given in (lam.coords, lam, lam.matrix, lam.matrix + off_range):
            want = _reference_evaluate(op, given, family)
            got = _evaluate(op, _dual_coords(op, given), family, need_jacobian=True)
            assert np.array_equal(mp.family_density(op, given, family), got.density)
            assert np.array_equal(mp.flow_jacobian(op, given, family), got.flow_jacobian)
            for field, ref in zip(("density", "h_coords", "flow_jacobian", "min_eig"), want):
                err = np.linalg.norm(np.asarray(getattr(got, field)) - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), (label, field, type(given))


def test_an_operator_is_freed_after_use():
    # what the evaluation keeps per operator lives on the operator, or with a
    # weighted family only while the operator's basis lives, so a CLI process
    # that builds one operator per verdict does not grow
    op = pr.nonequispaced_array_problem()
    moment = mp.apply_L(op, pr.two_bump_demo_density(op.grid))
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    families = [mp.family_from_name(name, sigma=sigma) for name in
                ("rational", "exponential", "weighted_rational", "weighted_exponential")]
    for family in families:
        assert mp.solve(op, moment, family).status == "Converged", family.kind
    freed = weakref.ref(op)
    del op
    gc.collect()
    assert freed() is None
    assert all(len(family._moment_bases) == 0 for family in families)


def test_the_moment_side_images_are_built_once_per_basis(monkeypatch):
    # a weighted family builds X~ = phi* X phi at its first evaluation on an
    # operator basis and reuses it on the next; another operator gets its own,
    # and an unweighted family contracts with X itself
    built = []

    def counted(*args):
        built.append(RangeBasis(*args))
        return built[-1]

    op, other = (pr.state_covariance_problem(
        pr.random_state_model(n=4, m=2, seed=0),
        mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4)) for _ in range(2))
    family = mp.weighted_exponential_family(pr.random_smooth_matrix_density(op.grid, 2, seed=9))
    monkeypatch.setattr(families_module, "RangeBasis", counted)
    zeros = np.zeros(op.d)
    for _ in range(2):
        _evaluate(op, zeros, family, need_jacobian=True)
    assert len(built) == 1 and family.moment_basis(op.basis) is built[0]
    _evaluate(other, zeros, family, need_jacobian=True)
    assert len(built) == 2 and family.moment_basis(other.basis) is built[1]
    assert mp.exponential_family().moment_basis(op.basis) is op.basis
    assert len(built) == 2


# ---------------------------------------------------------------------------
# construction helpers


def test_family_name_lookup_accepts_both_separators():
    sigma = np.full((4, 1, 1), 2.0, dtype=complex)
    for name in ("weighted-rational", "weighted_rational"):
        fam = mp.family_from_name(name, sigma=sigma)
        assert fam.kind == "weighted_rational"
    assert mp.family_from_name("rational").is_inverse_kind
    assert not mp.family_from_name("exponential").is_inverse_kind


def test_family_name_lookup_rejects_bad_input():
    with pytest.raises(ValueError):
        mp.family_from_name("no-such-family")
    with pytest.raises(ValueError):
        mp.family_from_name("weighted-exponential")  # sigma is mandatory
    with pytest.raises(PositivityError):
        mp.weighted_exponential_family(np.full((2, 1, 1), -1.0, dtype=complex))
