"""Density families: closed-form values, Jacobians, starting points."""
import numpy as np
import pytest

import momentropy as mp
from momentropy import problems as pr
from momentropy.calculus import _divided_difference_exp, eigh_hermitian, hermitian_part
from momentropy.errors import DualStartNotFound, PositivityError
from momentropy.families import _evaluate


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


def _oracle_cases():
    rng = np.random.default_rng(5)
    statecov = pr.state_covariance_problem(
        pr.random_state_model(n=4, m=2, seed=0),
        mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4))
    ptrace = pr.partial_trace_problem(2, 2)
    raw = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    ptrace_sigma = raw @ np.conj(raw).swapaxes(1, 2) + 0.5 * np.eye(4)
    for op, sigma in ((pr.nonequispaced_array_problem(), None), (statecov, None),
                      (ptrace, ptrace_sigma)):
        if sigma is None:
            sigma = pr.random_smooth_matrix_density(op.grid, op.m, seed=9)
        for name in mp.FAMILY_KINDS:
            yield op, mp.family_from_name(name, sigma=sigma), rng
    # an outer factor that is not Hermitian: rho = phi A^-1 phi*, which differs
    # from the sigma^(1/2) weighting of the same sigma = phi phi* at m > 1
    noise = rng.standard_normal((statecov.node_count, 2, 2)) \
        + 1j * rng.standard_normal((statecov.node_count, 2, 2))
    phi = np.triu(noise, 1) + np.eye(2) * (1.0 + rng.random((statecov.node_count, 1, 1)))
    family = mp.weighted_rational_family(phi=phi)
    assert np.array_equal(family.sigma, phi @ np.conj(phi).swapaxes(1, 2))
    yield statecov, family, rng


def test_evaluation_matches_its_einsum_formulation():
    # m = 1 (array), 2 (state covariance) and 4 (partial trace), every family,
    # the dual point given as coordinates, as a DualVariable and as a matrix
    for op, family, rng in _oracle_cases():
        label = "%s m=%d" % (family.kind, op.m)
        if family.is_inverse_kind and op.m == 4:
            # L*(lam) has rank 2 at both nodes for every lam, so both give up
            lam = mp.dual_from_matrix(op, np.eye(2, dtype=complex))
            with pytest.raises(PositivityError) as ref:
                _reference_evaluate(op, lam, family)
            with pytest.raises(PositivityError) as got:
                _evaluate(op, lam, family, need_jacobian=True)
            assert got.value.node == ref.value.node, label
            continue
        lam = _feasible_perturbed_start(op, family, rng, scale=0.3)
        # L* vanishes on the orthogonal complement of the range, so a matrix
        # with a component there must give the same evaluation
        noise = rng.standard_normal(lam.matrix.shape) + 1j * rng.standard_normal(lam.matrix.shape)
        off_range = noise - op.basis.assemble(op.basis.coords_of(noise))
        off_range *= np.linalg.norm(lam.matrix) / np.linalg.norm(off_range)
        for given in (lam.coords, lam, lam.matrix, lam.matrix + off_range):
            want = _reference_evaluate(op, given, family)
            got = _evaluate(op, given, family, need_jacobian=True)
            assert np.array_equal(_evaluate(op, given, family).density, got.density)
            for field, ref in zip(("density", "h_coords", "flow_jacobian", "min_eig"), want):
                err = np.linalg.norm(np.asarray(getattr(got, field)) - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), (label, field, type(given))


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
