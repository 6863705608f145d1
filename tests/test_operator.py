"""Quadrature grids, moment operators, range bases and entropy integrals.

The array anchor values are pi * J0 at the three sensor separations,
computed with scipy.special.j0 and frozen:
    pi*J0(1)         = 2.4039394306344128
    pi*J0(sqrt(2))   = 1.756571720477881
    pi*J0(1+sqrt(2)) = -0.015281332565513851
"""
import numpy as np
import pytest

import momentropy as mp
from momentropy import formats as fm
from momentropy import problems as pr
from momentropy.calculus import _adjoint_field, eigvalsh_hermitian
from momentropy.errors import PositivityError
from momentropy.operator import _field_eigs

_PI_J0 = {
    0.0: np.pi,
    1.0: 2.4039394306344128,
    np.sqrt(2.0): 1.756571720477881,
    1.0 + np.sqrt(2.0): -0.015281332565513851,
}


# ---------------------------------------------------------------------------
# grids


def test_interval_quadrature_integrates_smooth_functions():
    g = mp.build_grid("interval1d", (0.0, np.pi))
    assert np.sum(g.weights * np.sin(g.nodes[:, 0])) == pytest.approx(2.0, abs=1e-13)
    g2 = mp.build_grid("interval1d", (0.0, 1.0), panels=16, order=6)
    assert np.sum(g2.weights * np.exp(g2.nodes[:, 0])) == pytest.approx(np.e - 1.0, abs=1e-13)


def test_single_panel_rule_exact_on_matching_polynomials():
    # an order-q Gauss rule integrates degree 2q-1 exactly
    g = mp.build_grid("interval1d", (0.0, 1.0), panels=1, order=5)
    assert np.sum(g.weights * g.nodes[:, 0] ** 9) == pytest.approx(0.1, abs=1e-15)


def test_rectangle_grid_structure_and_tensor_quadrature():
    g = mp.build_grid("rectangle2d", ((0.0, 1.0), (0.0, 1.0)), panels=4, order=3)
    assert g.dim == 2
    assert g.node_count == (4 * 3) ** 2
    assert g.measure == pytest.approx(1.0)
    prod = g.nodes[:, 0] * g.nodes[:, 1]
    assert np.sum(g.weights * prod) == pytest.approx(0.25, abs=1e-14)


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        mp.build_grid("interval1d", (0.0, 1.0), order=1)
    with pytest.raises(ValueError):
        mp.build_grid("interval1d", (0.0, 1.0), order=11)
    with pytest.raises(ValueError):
        mp.build_grid("interval1d", (0.0, 1.0), panels=0)
    with pytest.raises(ValueError):
        mp.build_grid("unknown-kind", (0.0, 1.0))
    # non-finite bounds are refused before any node is computed, with no
    # RuntimeWarning; so are non-finite weights and nodes of a grid built
    # directly, which herglotz_interpolant would turn into nan
    for kind, bounds in (("interval1d", (0.0, np.inf)), ("interval1d", (np.nan, 1.0)),
                         ("rectangle2d", ((0.0, 1.0), (-np.inf, 1.0)))):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            mp.build_grid(kind, bounds)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            mp.SupportGrid("discrete", np.zeros((2, 1)), np.array([1.0, bad]))
    for bad in (np.nan, np.inf, -np.inf):
        for kind, nodes in (("interval1d", [[0.0], [bad]]),
                            ("rectangle2d", [[0.0, 1.0], [bad, 0.5]])):
            with pytest.raises(ValueError, match="grid nodes must be finite"):
                mp.SupportGrid(kind, np.array(nodes), np.ones(2))


def test_kernel_samples_must_be_finite():
    ones = np.ones((4, 1, 1), dtype=complex)
    for bad in (np.nan, np.inf):
        broken = ones.copy()
        broken[2] = bad
        for left, right in ((broken, ones), (ones, broken)):
            with pytest.raises(ValueError, match="non-finite"):
                mp.kernel_samples(left, right)


def test_discrete_grid_has_unit_weights_and_zero_dimension():
    g = mp.discrete_grid(3)
    assert g.dim == 0
    assert g.node_count == 3
    assert np.array_equal(g.weights, np.ones(3))
    assert g.measure == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# operator and range basis


def test_array_constant_density_moment_matches_bessel_values(array_problem):
    op, _rho, _R = array_problem
    ones = pr.constant_density(op.grid, 1, 1.0)
    moment = mp.apply_L(op, ones)
    pos = np.asarray(pr.DEFAULT_ARRAY_POSITIONS)
    for i in range(3):
        for j in range(3):
            sep = abs(pos[i] - pos[j])
            ref = next(v for s, v in _PI_J0.items() if abs(s - sep) < 1e-12)
            assert moment[i, j] == pytest.approx(ref, abs=1e-12)


def test_adjoint_pairing_identity_scalar_and_matrix(rng):
    cases = [
        pr.nonequispaced_array_problem(),
        pr.partial_trace_problem(2, 2),
        pr.state_covariance_problem(
            pr.random_state_model(n=3, m=2, seed=2),
            mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4),
        ),
    ]
    for op in cases:
        m = op.kernels.left.shape[2]
        for _ in range(5):
            lam = mp.dual_from_coords(op, rng.standard_normal(op.d))
            raw = rng.standard_normal((op.node_count, m, m)) \
                + 1j * rng.standard_normal((op.node_count, m, m))
            rho = raw + np.conj(raw).swapaxes(1, 2)
            lhs = mp.inner(lam.matrix, mp.apply_L(op, rho))
            field = mp.apply_L_adjoint(op, lam.matrix)
            rhs = float(np.sum(op.grid.weights * np.real(
                np.einsum("nab,nba->n", np.conj(field).swapaxes(1, 2), rho))))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_adjoint_basis_is_c_contiguous(tmp_path):
    # the evaluation reads the images through flat real views, which need no
    # copy; at m <= 2 they are real rows of the diagonal and upper entries,
    # which determine an image only when it is exactly Hermitian
    interval = mp.build_grid("interval1d", (0.0, 1.0), panels=2, order=2)
    ones = np.ones((interval.node_count, 1, 1), dtype=complex)
    ptrace = pr.partial_trace_problem(2, 2)
    array = pr.nonequispaced_array_problem()
    ops = [
        mp.build_operator(interval, mp.kernel_samples(ones, ones)),
        array,
        pr.grid2d_problem(2, mp.build_grid("rectangle2d", ((0.0, np.pi), (0.0, np.pi)),
                                           panels=2, order=2)),
        ptrace,
        pr.state_covariance_problem(
            pr.random_state_model(n=3, m=2, seed=2),
            mp.build_grid("interval1d", (-np.pi, np.pi), panels=4, order=3)),
    ]
    for name, op, density in (("ptrace", ptrace, np.broadcast_to(pr.bell_state(), (2, 4, 4))),
                              ("array", array, pr.two_bump_demo_density(array.grid))):
        path = tmp_path / (name + ".json")
        moment = mp.apply_L(op, np.array(density))
        fm.write_problem(path, fm.problem_to_obj(op.grid, fm.samples_kernels_obj(op), moment))
        ops.append(fm.load_problem(path).operator)
    assert [op.m for op in ops] == [1, 1, 1, 4, 2, 4, 1]
    for op in ops:
        assert op.adjoint_basis.flags.c_contiguous, op.kernels.left.shape
        assert op.basis.images.flags.c_contiguous, op.kernels.left.shape
        if op.m <= 2:
            x = op.adjoint_basis
            assert np.array_equal(x, np.conj(x.swapaxes(2, 3))), op.kernels.left.shape
            entries = x[:, :, 0, 0].real if op.m == 1 else np.stack([
                x[:, :, 0, 0].real, x[:, :, 1, 1].real, x[:, :, 0, 1].real, x[:, :, 0, 1].imag],
                axis=1)
            assert np.array_equal(op.basis.images, entries)
        else:
            assert op.basis.images is op.adjoint_basis


@pytest.mark.parametrize("example", list(fm.EXAMPLES))
def test_every_adjoint_field_spectrum_has_one_reader(example):
    # _field_eigs reads L*(x) in the field layout (real rows at m <= 2) and
    # must give the complex stack's eigenvalues bit for bit, at lam_I, at 0
    # and at coordinates of every size
    op = fm.example_problem(example)[0]
    rng = np.random.default_rng(7)
    points = [op.identity_dual[0], np.zeros(op.d)] + [
        size * rng.standard_normal(op.d) for size in 10.0 ** np.arange(-200, 201, 25)
        for _ in range(3)]
    for x in points:
        eigs = _field_eigs(op, x)
        assert eigs.shape == (op.node_count, op.m)
        assert np.array_equal(eigs, eigvalsh_hermitian(_adjoint_field(x, op.adjoint_basis)))
    assert np.array_equal(op.identity_dual[1], _field_eigs(op, op.identity_dual[0]))


def test_range_dimensions_match_counting_arguments():
    # interval array: one real diagonal value plus a complex value per
    # distinct nonzero separation
    op = pr.nonequispaced_array_problem()
    seps = pr.moment_index_set()
    assert op.d == 1 + 2 * (len(seps) - 1) == 7

    # 2-D grid of complex exponentials: full complex (n+1) x (n+1) matrix up
    # to one real normalization
    op2 = pr.grid2d_problem(2)
    assert op2.d == 2 * (2 + 1) ** 2 - 1 == 17

    # state covariance: Hermitian n x n matrices satisfying a rank-2m
    # displacement structure
    op3 = pr.state_covariance_problem(
        pr.random_state_model(n=4, m=2, seed=0),
        mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4))
    assert op3.d == 2 * 2 * 4 - 2 ** 2 == 12

    # partial trace onto a d-dimensional subsystem: all Hermitian d x d
    op4 = pr.partial_trace_problem(2, 3)
    assert op4.d == 2 ** 2 == 4

    # single node with identity kernels: every Hermitian m x m is reachable
    eye = np.eye(2, dtype=complex)[None]
    op5 = mp.build_operator(mp.discrete_grid(1), mp.kernel_samples(eye, eye))
    assert op5.d == 4


def _generator_range_basis(op):
    """Range basis from an SVD over the generators w_n G_left[n] H G_right[n],
    H running over the orthonormal Hermitian units of the m x m space."""
    m, size = op.m, op.n_left * op.n_right
    units = []
    for a in range(m):
        for b in range(m):
            e = np.zeros((m, m), dtype=complex)
            if a == b:
                e[a, a] = 1.0
            elif a < b:
                e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
            else:
                e[b, a], e[a, b] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            units.append(e)
    gen = np.einsum("n,nab,ubc,ncd->nuad", op.grid.weights, op.kernels.left,
                    np.stack(units), op.kernels.right)
    flat = gen.reshape(-1, size)
    _, s, vt = np.linalg.svd(np.hstack([flat.real, flat.imag]), full_matrices=False)
    kept = vt[s > 1e-10 * s[0]]
    return (kept[:, :size] + 1j * kept[:, size:]).reshape(-1, op.n_left, op.n_right)


def _range_basis_cases(tmp_path):
    rng = np.random.default_rng(11)
    samples = mp.build_operator(mp.discrete_grid(5), mp.kernel_samples(
        rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2)),
        rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))))
    path = tmp_path / "samples.json"
    fm.write_problem(path, fm.problem_to_obj(samples.grid, fm.samples_kernels_obj(samples),
                                             np.zeros((2, 3))))
    # the right kernels 1 and 1e-12 of the inverse-family floor test below
    ones = np.ones((2, 1, 1), dtype=complex)
    tiny = np.array([1.0, 1e-12], dtype=complex).reshape(2, 1, 1)
    return {
        "array": pr.nonequispaced_array_problem(),
        "grid2d": pr.grid2d_problem(2, mp.build_grid(
            "rectangle2d", ((0.0, np.pi), (0.0, np.pi)), panels=12, order=4)),
        "partial-trace": pr.partial_trace_problem(2, 2),
        "statecov": pr.state_covariance_problem(
            pr.random_state_model(n=4, m=2, seed=0),
            mp.build_grid("interval1d", (-np.pi, np.pi), panels=32, order=5)),
        "samples": fm.load_problem(path).operator,
        "floor": mp.build_operator(mp.discrete_grid(2), mp.kernel_samples(ones, tiny)),
    }


def test_range_basis_from_one_adjoint_pass_matches_the_generator_basis(tmp_path):
    # L* of the unit matrices has the generators' Gram matrix, so the same
    # subspace comes out; only its rotation and signs may differ
    for name, op in _range_basis_cases(tmp_path).items():
        ref = _generator_range_basis(op)
        assert op.d == len(ref), name
        rows = op.basis.elements.reshape(op.d, -1).view(float)
        ref_rows = np.ascontiguousarray(ref).reshape(op.d, -1).view(float)
        assert np.abs(rows.T @ rows - ref_rows.T @ ref_rows).max() <= 1e-12, name
        assert np.abs(rows @ rows.T - np.eye(op.d)).max() <= 1e-12, name
        for i in range(op.d):
            want = mp.apply_L_adjoint(op, op.basis.elements[i])
            assert np.linalg.norm(op.adjoint_basis[i] - want) <= 1e-12 * np.linalg.norm(want), \
                (name, i)


def test_range_basis_is_orthonormal(array_problem):
    op, _rho, _R = array_problem
    mats = op.basis.elements
    for i in range(op.d):
        for j in range(op.d):
            expected = 1.0 if i == j else 0.0
            assert mp.inner(mats[i], mats[j]) == pytest.approx(expected, abs=1e-12)


def test_projection_is_idempotent_with_orthogonal_residual(array_problem, rng):
    op, _rho, _R = array_problem
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = raw + raw.conj().T
    coords, resid = mp.project_to_range(op, y)
    recon = op.basis.assemble(coords)
    coords2, resid2 = mp.project_to_range(op, recon)
    assert np.allclose(coords2, coords, rtol=0, atol=1e-12)
    assert resid2 <= 1e-12 * max(1.0, np.linalg.norm(recon))
    # the residual has no component along the basis
    tail = y - recon
    assert np.linalg.norm(op.basis.coords_of(tail)) <= 1e-12 * np.linalg.norm(y)
    # its norm holds where the squares of the entries under- or overflow
    for size in (1e-170, 1e-300, 1e300):
        _coords, resid_c = mp.project_to_range(op, size * y)
        assert resid_c / size == pytest.approx(resid, rel=1e-12)


def test_forward_images_have_zero_range_residual(array_problem, rng):
    op, _rho, moment = array_problem
    _coords, resid = mp.project_to_range(op, moment)
    assert resid <= 1e-12 * np.linalg.norm(moment)
    raw = rng.standard_normal((op.node_count, 1, 1))
    image = mp.apply_L(op, raw.astype(complex))
    _coords, resid2 = mp.project_to_range(op, image)
    assert resid2 <= 1e-12 * max(1.0, np.linalg.norm(image))


def test_dual_from_matrix_requires_range_membership(array_problem, rng):
    op, _rho, _R = array_problem
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = raw + raw.conj().T
    coords, resid = mp.project_to_range(op, y)
    assert resid > 1e-6  # generic Hermitian matrices are not in the range
    inside = op.basis.assemble(coords)
    # also where the squares in the Frobenius norms underflow
    for size in (1.0, 1e-170, 1e-300):
        with pytest.raises(ValueError, match="outside the range"):
            mp.dual_from_matrix(op, size * y)
        lam = mp.dual_from_matrix(op, size * inside)
        assert np.allclose(lam.coords, size * coords, rtol=0, atol=1e-12 * size)
    with pytest.raises(ValueError, match="outside the range"):
        mp.dual_from_matrix(op, np.full_like(y, np.nan))


def test_each_range_test_projects_once(array_problem, monkeypatch):
    # the solver's range test and dual_from_matrix take the coordinates and
    # the residual from one projection
    op, _rho, moment = array_problem
    coords_of, calls = mp.RangeBasis.coords_of, []

    def counted(basis, matrix):
        calls.append(matrix)
        return coords_of(basis, matrix)
    monkeypatch.setattr(mp.RangeBasis, "coords_of", counted)
    mp.dual_from_matrix(op, moment)
    assert len(calls) == 1
    calls.clear()
    off_range = moment.copy()
    off_range[0, 1] += 0.5j
    report = mp.solve(op, off_range, mp.rational_family())
    assert report.status == "NotInRange" and len(calls) == 1


def test_moment_functional_matches_trace_pairing(array_problem, rng):
    op, _rho, moment = array_problem
    lam = mp.dual_from_coords(op, rng.standard_normal(op.d))
    assert mp.moment_functional(op, moment, lam) == pytest.approx(
        mp.inner(lam.matrix, moment), rel=1e-13)


def test_dual_feasibility_checks_adjoint_field(array_problem):
    op, _rho, _R = array_problem
    start = mp.default_dual_start(op, mp.rational_family())
    ok, min_eig = mp.is_dual_feasible(op, start)
    assert ok and min_eig > 0.9  # the identity field has eigenvalue one
    bad, min_eig_bad = mp.is_dual_feasible(op, mp.dual_from_coords(op, -start.coords))
    assert not bad and min_eig_bad < 0.0


def test_dual_feasibility_uses_the_inverse_family_floor():
    # right kernels 1 and 1e-12 at lam = 1: the adjoint field is positive but
    # its small eigenvalue lies below 1e-10 times the mean, where the inverse
    # families refuse the point, so the feasibility test refuses it too
    grid = mp.discrete_grid(2)
    left = np.ones((2, 1, 1), dtype=complex)
    right = np.array([1.0, 1e-12], dtype=complex).reshape(2, 1, 1)
    op = mp.build_operator(grid, mp.kernel_samples(left, right))
    lam = np.ones((1, 1), dtype=complex)
    assert mp.is_dual_feasible(op, lam) == (False, 1e-12)
    with pytest.raises(PositivityError):
        mp.family_density(op, lam, mp.rational_family())


def _malformed_dual_point(op, kind):
    coords = np.ones(op.d)
    if kind == "complex":
        return coords.astype(complex) + 1e-3j * (np.arange(op.d) == 2)
    if kind == "foreign":
        return mp.default_dual_start(fm.example_problem("scalar-demo")[0], mp.exponential_family())
    if kind == "short":
        return coords[1:]
    coords[2] = float(kind)
    return coords


@pytest.mark.parametrize("kind", ["short", "complex", "nan", "inf", "-inf", "foreign"])
@pytest.mark.parametrize("entry", ["family_density", "h_map", "flow_jacobian", "is_dual_feasible",
                                   "moment_functional", "dual_from_coords", "solve", "solve_tau"])
def test_every_entry_refuses_a_malformed_dual_point_by_name(array_problem, entry, kind):
    # one reader turns every dual point into range coordinates, so each entry
    # refuses the same points with the same words, naming its own argument
    op, _rho, moment = array_problem
    family = mp.exponential_family()
    name, read = {
        "family_density": ("lam", lambda lam: mp.family_density(op, lam, family)),
        "h_map": ("lam", lambda lam: mp.h_map(op, lam, family)),
        "flow_jacobian": ("lam", lambda lam: mp.flow_jacobian(op, lam, family)),
        "is_dual_feasible": ("lam", lambda lam: mp.is_dual_feasible(op, lam)),
        "moment_functional": ("lam", lambda lam: mp.moment_functional(op, moment, lam)),
        "dual_from_coords": ("coords", lambda lam: mp.dual_from_coords(op, lam)),
        "solve": ("start", lambda lam: mp.solve(op, moment, family, start=lam)),
        "solve_tau": ("start", lambda lam: mp.solve_tau(op, moment, family, start=lam)),
    }[entry]
    words = {"short": r"has shape \(6,\); this operator needs \(7,\)",
             "foreign": r"has shape \(1,\); this operator needs \(7,\)",
             "complex": "has complex coordinates"}.get(kind, "has non-finite coordinates")
    with pytest.raises(ValueError, match="^%s %s$" % (name, words)):
        read(_malformed_dual_point(op, kind))


@pytest.mark.parametrize("example", sorted(fm.EXAMPLES))
def test_the_identity_dual_is_the_weighted_least_squares_solution(example):
    # lam_I minimises sum_n w_n ||L*(lam)[n] - I||^2 over the range, so the
    # residual field is orthogonal to every cached adjoint image X_i in the
    # weighted pairing sum_n w_n Re tr(X_i (L*(lam_I) - I)); this holds on
    # the partial trace too, where L*(lam_I) is far from I
    op = fm.example_problem(example)[0]
    coords, eigs = op.identity_dual
    images = op.adjoint_basis
    field = np.einsum("i,inab->nab", coords, images)
    w = op.grid.weights
    pairing = np.einsum("n,inab,nba->i", w, images, field - np.eye(op.m)).real
    scale = np.einsum("n,in,n->i", w, np.linalg.norm(images, axis=(2, 3)),
                      np.linalg.norm(field, axis=(1, 2)) + np.sqrt(op.m))
    assert np.all(np.abs(pairing) <= 1e-13 * scale), np.abs(pairing / scale).max()
    assert np.allclose(eigs, np.linalg.eigvalsh(field), rtol=0.0, atol=1e-12)
    # the solve on the real rows, weighted by sqrt(2) off the diagonal, gives
    # the least-squares solution over the complex view of the images, which
    # holds zero imaginary rows at m = 1 and every off-diagonal entry twice
    root_w = np.sqrt(w)[:, None, None]
    rows = (root_w * images).reshape(op.d, -1).view(float)
    target = (root_w * np.eye(op.m)).astype(complex).reshape(-1).view(float)
    want = np.linalg.lstsq(rows.T, target, rcond=None)[0]
    assert np.linalg.norm(coords - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# entropy integrals


def _scalar_field(grid, value):
    return np.full((grid.node_count, 1, 1), value, dtype=complex)


def test_entropy_closed_forms_for_constant_scalar_density():
    g = mp.build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    rho = _scalar_field(g, 2.0)
    assert mp.entropy(rho, g, "burg") == pytest.approx(-np.log(2.0), abs=1e-12)
    assert mp.entropy(rho, g, "vonneumann") == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
    assert mp.entropy(rho, g, "relative", sigma=rho) == pytest.approx(0.0, abs=1e-12)
    ones = _scalar_field(g, 1.0)
    assert mp.entropy(rho, g, "relative", sigma=ones) == pytest.approx(
        2.0 * np.log(2.0), abs=1e-12)


def test_relative_entropy_klein_inequality(rng):
    # trace(rho log rho - rho log sigma) >= trace(rho - sigma) pointwise
    g = mp.build_grid("interval1d", (0.0, 1.0), panels=4, order=3)
    for _ in range(10):
        rho = pr.random_smooth_matrix_density(g, 2, seed=int(rng.integers(1 << 30)))
        sigma = pr.random_smooth_matrix_density(g, 2, seed=int(rng.integers(1 << 30)))
        lower = float(np.sum(g.weights * np.real(
            np.einsum("naa->n", rho - sigma))))
        assert mp.entropy(rho, g, "relative", sigma=sigma) >= lower - 1e-10


def test_entropy_rejects_indefinite_densities():
    g = mp.build_grid("interval1d", (0.0, 1.0), panels=4, order=3)
    rho = _scalar_field(g, 1.0)
    rho[7, 0, 0] = -0.5
    with pytest.raises(PositivityError) as err:
        mp.entropy(rho, g, "burg")
    assert err.value.node == 7
    assert err.value.min_eig == pytest.approx(-0.5)


def test_entropy_input_validation():
    g = mp.build_grid("interval1d", (0.0, 1.0), panels=4, order=3)
    rho = _scalar_field(g, 1.0)
    with pytest.raises(ValueError):
        mp.entropy(rho[:-1], g, "burg")
    with pytest.raises(ValueError):
        mp.entropy(rho, g, "relative")
    with pytest.raises(ValueError):
        mp.entropy(rho, g, "no-such-kind")
