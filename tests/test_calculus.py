"""Spectral matrix calculus: scrambled multiplication, Frechet maps, guards.

Reference values below were computed independently with scipy.linalg.expm /
scipy.linalg.logm and a 4001-point composite Simpson quadrature of the
defining integral  M_C(D) = integral over s in [0,1] of C^(1-s) D C^s,
then frozen here at full precision.
"""
import decimal
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import momentropy as mp
from momentropy import calculus, families
from momentropy import formats as fm
from momentropy import problems as pr
from momentropy.errors import PositivityError

_C = np.array([[2.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
_D = np.array([[0.5, -0.2 + 0.1j], [-0.2 - 0.1j, 1.5]])
_MCD = np.array([
    [1.0072765675864916 + 0.0j, 0.0045065633403767336 + 0.51252436801160417j],
    [0.0045065633403767614 - 0.51252436801160473j, 1.452723432413513 + 0.0j],
])

# same construction with a nearly degenerate base (eigenvalue ratio 1 + 2e-5),
# which exercises the series branch of the divided-difference kernel
_C_DEG = np.array([[1.0, 1e-5], [1e-5, 1.0]], dtype=complex)
_D_DEG = np.array([[0.3, 1.2 - 0.7j], [1.2 + 0.7j, -0.4]])
_MCD_DEG = np.array([
    [0.30001199998833322 + 0.0j, 1.1999994999999997 - 0.69999999997666651j],
    [1.1999994999999999 + 0.6999999999766664j, -0.3999879999883334 + 0.0j],
])

_EXPM_H = np.array([[0.7, 0.2 - 0.5j], [0.2 + 0.5j, -0.3]])
_EXPM_REF = np.array([
    [2.2334589898938324 + 0.0j, 0.2668670925639004 - 0.66716773140975094j],
    [0.26686709256390051 + 0.66716773140975127j, 0.89912352707433019 + 0.0j],
])
_LOGM_REF = np.array([
    [0.64175790541770217 + 0.0j, 0.21717000686999435 + 0.28956000915999253j],
    [0.21717000686999438 - 0.28956000915999253j, -0.082142117482279023 + 0.0j],
])


def _random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * 0.5 * (a + a.conj().T)


def _random_pd(rng, m, shift=0.2):
    h = _random_hermitian(rng, m)
    return h @ h.conj().T + shift * np.eye(m)


def test_scrambled_multiply_matches_quadrature_reference():
    got = mp.scrambled_multiply(_C, _D)
    assert np.linalg.norm(got - _MCD) <= 1e-12 * np.linalg.norm(_MCD)


def test_scrambled_multiply_series_branch_matches_quadrature_reference():
    got = mp.scrambled_multiply(_C_DEG, _D_DEG)
    assert np.linalg.norm(got - _MCD_DEG) <= 1e-12 * np.linalg.norm(_MCD_DEG)


def test_scrambled_multiply_identity_base_is_identity_map(rng):
    d = _random_hermitian(rng, 4)
    assert np.allclose(mp.scrambled_multiply(np.eye(4, dtype=complex), d), d,
                       rtol=0, atol=1e-14)


def test_scrambled_multiply_diagonal_base_uses_logarithmic_means():
    c = np.diag([0.5, 2.0, 5.0]).astype(complex)
    got = mp.scrambled_multiply(c, np.ones((3, 3), dtype=complex))
    ev = np.array([0.5, 2.0, 5.0])
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                expected[i, j] = ev[i]
            else:
                expected[i, j] = (ev[i] - ev[j]) / (np.log(ev[i]) - np.log(ev[j]))
    assert np.allclose(got, expected, rtol=1e-13, atol=0)


def test_scrambled_multiply_is_linear(rng):
    c = _random_pd(rng, 3)
    d1, d2 = _random_hermitian(rng, 3), _random_hermitian(rng, 3)
    lhs = mp.scrambled_multiply(c, 0.7 * d1 - 1.3 * d2)
    rhs = 0.7 * mp.scrambled_multiply(c, d1) - 1.3 * mp.scrambled_multiply(c, d2)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))


def test_scrambled_maps_preserve_hermitian_structure(rng):
    for _ in range(10):
        c = _random_pd(rng, 4)
        d = _random_hermitian(rng, 4)
        for out in (mp.scrambled_multiply(c, d), mp.scrambled_divide(c, d)):
            assert np.linalg.norm(out - out.conj().T) <= 1e-12 * np.linalg.norm(out)


def test_scrambled_divide_preserves_positivity(rng):
    # the divided differences of log form a positive-definite Loewner kernel
    # (log is operator monotone), so the inverse map keeps the cone invariant;
    # no such property holds for the multiply direction
    for _ in range(10):
        c = _random_pd(rng, 4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d_pos = w @ w.conj().T
        out = mp.scrambled_divide(c, d_pos)
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))))
        assert min_eig >= -1e-12 * np.linalg.norm(out)


def test_scrambled_divide_inverts_scrambled_multiply(rng):
    for _ in range(10):
        c = _random_pd(rng, 4)
        d = _random_hermitian(rng, 4)
        back = mp.scrambled_divide(c, mp.scrambled_multiply(c, d))
        assert np.linalg.norm(back - d) <= 1e-11 * max(1.0, np.linalg.norm(d))
        forth = mp.scrambled_multiply(c, mp.scrambled_divide(c, d))
        assert np.linalg.norm(forth - d) <= 1e-11 * max(1.0, np.linalg.norm(d))


def test_trace_identity_for_scrambled_divide(rng):
    # trace(A * M_A^{-1}(D)) recovers trace(D)
    for _ in range(10):
        a = _random_pd(rng, 4)
        d = _random_hermitian(rng, 4)
        lhs = np.trace(a @ mp.scrambled_divide(a, d)).real
        rhs = np.trace(d).real
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_frechet_exp_matches_central_differences(rng):
    eps = 1e-5
    for _ in range(8):
        h = _random_hermitian(rng, 3, scale=0.6)
        d = _random_hermitian(rng, 3)
        got = mp.frechet_exp(h, d)
        fd = (sla.expm(h + eps * d) - sla.expm(h - eps * d)) / (2 * eps)
        assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_frechet_log_matches_central_differences(rng):
    eps = 1e-5
    for _ in range(8):
        c = _random_pd(rng, 3, shift=0.5)
        d = _random_hermitian(rng, 3)
        got = mp.frechet_log(c, d)
        fd = (sla.logm(c + eps * d) - sla.logm(c - eps * d)) / (2 * eps)
        assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_matrix_exp_matches_reference():
    assert np.allclose(mp.matrix_exp(_EXPM_H), _EXPM_REF, rtol=1e-13, atol=1e-15)


def test_matrix_log_matches_reference():
    assert np.allclose(mp.matrix_log(_C), _LOGM_REF, rtol=1e-13, atol=1e-15)


def test_matrix_exp_log_round_trip(rng):
    for _ in range(5):
        c = _random_pd(rng, 4)
        back = mp.matrix_exp(mp.matrix_log(c))
        assert np.linalg.norm(back - c) <= 1e-12 * np.linalg.norm(c)


def test_eigh_hermitian_one_by_one_fast_path(rng):
    field = (2.0 + rng.standard_normal((6, 1, 1))).astype(complex)
    w, u = mp.eigh_hermitian(field)
    assert w.shape == (6, 1)
    assert np.allclose(w[:, 0], field[:, 0, 0].real, rtol=0, atol=0)
    assert np.allclose(u, np.ones((6, 1, 1)), rtol=0, atol=0)


def _random_unitary_stack(rng, n):
    z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return np.linalg.qr(z)[0]


def _with_spectrum(rng, low, high):
    # u diag(low, high) u* at every node, u a random unitary
    u = _random_unitary_stack(rng, low.size)
    return (u * np.stack([low, high], axis=-1)[:, None, :]) @ np.conj(u).swapaxes(1, 2)


def _two_by_two_stacks(rng, n=64):
    p, q, t = rng.standard_normal((3, n))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    diag_rising = np.zeros((n, 2, 2), dtype=complex)
    diag_rising[:, 0, 0], diag_rising[:, 1, 1] = p, p + 1.0 + np.abs(q)
    imaginary_b = np.zeros((n, 2, 2), dtype=complex)
    imaginary_b[:, 0, 0], imaginary_b[:, 1, 1] = p, q
    imaginary_b[:, 0, 1], imaginary_b[:, 1, 0] = 1j * t, -1j * t
    return {
        # not Hermitian: the kernel decomposes its Hermitian part
        "random complex": rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)),
        "diagonal, p < q": diag_rising,
        "diagonal, p > q": diag_rising[:, ::-1, ::-1].copy(),
        "scalar identity": np.tile(3.5 * np.eye(2, dtype=complex), (n, 1, 1)),
        "nearly degenerate": _with_spectrum(rng, scale, scale * (1.0 + 1e-10)),
        "eigenvalues 1e-8 to 1e8": _with_spectrum(rng, 10.0 ** rng.uniform(-8.0, 8.0, n),
                                                  10.0 ** rng.uniform(-8.0, 8.0, n)),
        "imaginary b": imaginary_b,
    }


def _exact_eigenvalues(h):
    # (p + q)/2 -+ sqrt(((q - p)/2)^2 + |b|^2) in 40-digit decimal arithmetic,
    # from the exact binary values of the entries
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        out = []
        for node in h:
            p, q = decimal.Decimal(node[0, 0].real), decimal.Decimal(node[1, 1].real)
            br, bi = decimal.Decimal(node[0, 1].real), decimal.Decimal(node[0, 1].imag)
            mid, half_gap = (p + q) / 2, (q - p) / 2
            r = (half_gap * half_gap + br * br + bi * bi).sqrt()
            out.append([float(mid - r), float(mid + r)])
    return np.array(out)


def test_eigh_hermitian_two_by_two_closed_form(rng):
    eps = np.finfo(float).eps
    for label, a in _two_by_two_stacks(rng).items():
        h = mp.hermitian_part(a)
        w, u = mp.eigh_hermitian(a)
        exact = _exact_eigenvalues(h)
        norm = np.max(np.abs(exact), axis=-1)  # ||A||_2 at each node
        assert np.all(np.abs(w - exact).max(axis=-1) <= 4.0 * eps * norm), label
        # LAPACK, through numpy and through scipy, is within its own 4 eps of exact
        for ref in (np.linalg.eigh(h)[0], np.array([sla.eigh(x, eigvals_only=True) for x in h])):
            assert np.all(np.abs(w - ref).max(axis=-1) <= 8.0 * eps * norm), label
        rebuilt = (u * w[:, None, :]) @ np.conj(u).swapaxes(1, 2)
        rel = np.linalg.norm(rebuilt - h, axis=(1, 2)) / np.linalg.norm(h, axis=(1, 2))
        assert np.all(rel <= 1e-14), label
        assert np.max(np.abs(np.conj(u).swapaxes(1, 2) @ u - np.eye(2))) <= 1e-14, label
        assert np.all(w[:, 0] <= w[:, 1]), label
        assert np.array_equal(calculus.eigvalsh_hermitian(a), w), label


def test_eigh_hermitian_two_by_two_special_cases(rng):
    stacks = _two_by_two_stacks(rng)
    # b = 0: the eigenvalues are the diagonal, exactly, and u the identity or the swap
    for label, u_exact in (("diagonal, p < q", [[1, 0], [0, 1]]),
                           ("diagonal, p > q", [[0, 1], [-1, 0]])):
        a = stacks[label]
        w, u = mp.eigh_hermitian(a)
        assert np.array_equal(w, np.sort(a.real[:, [0, 1], [0, 1]], axis=-1)), label
        assert np.array_equal(u, np.broadcast_to(u_exact, u.shape)), label
    # coincident eigenvalues (r = 0) give the identity
    w, u = mp.eigh_hermitian(stacks["scalar identity"])
    assert np.array_equal(w, np.full(w.shape, 3.5))
    assert np.array_equal(u, np.broadcast_to(np.eye(2), u.shape))


def test_eigh_hermitian_two_by_two_non_finite_input():
    # NaN and inf give non-finite eigenvalues, no warning, and the positivity
    # check rejects them
    for bad in (np.nan, np.inf, -np.inf):
        field = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        field[2, 0, 1] = bad
        w, _u = mp.eigh_hermitian(field)
        assert not np.all(np.isfinite(w[2])) and np.all(np.isfinite(w[[0, 1, 3]]))
        with pytest.raises(PositivityError):
            mp.matrix_log(field)


def test_an_inf_entry_at_m_3_is_refused_without_a_warning(rng):
    # the Hermitian part halves real and imaginary parts as reals, so inf
    # stays inf (a complex 0.5 would make 0 * inf a nan and warn), and LAPACK
    # then refuses the stack
    field = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    field[2, 0, 2] = np.inf
    half = mp.hermitian_part(field)
    assert half[2, 0, 2] == np.inf and half[2, 2, 0] == np.inf
    assert not np.any(np.isnan(half))
    for spectral in (mp.eigh_hermitian, mp.matrix_log, mp.assert_positive_definite):
        with pytest.raises(np.linalg.LinAlgError):
            spectral(field)
    # finite input gives the values of 0.5 * (A + A*)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    assert np.array_equal(mp.hermitian_part(a), 0.5 * (a + np.conj(a.swapaxes(1, 2))))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_a_non_finite_field_in_a_statecov_solve_is_a_rejected_step(monkeypatch, name, bad):
    # one node of one adjoint field, in the first step after the start, is
    # poisoned; the step is rejected and retried shorter, and the run converges
    op, _kernels, moment, _rho = fm.example_problem("statecov")
    clean = mp.solve(op, moment, mp.family_from_name(name))
    real_field = families._adjoint_field
    calls = []

    def poisoned(lam, images):
        field = real_field(lam, images)
        calls.append(lam)
        # after the unscaled and the scaled start: the clean solve left lam_I
        # with the operator
        if len(calls) == 3:
            field = field.copy()
            field[2, 7] = bad  # Re of the off-diagonal entry at node 7, in real rows
        return field

    monkeypatch.setattr(families, "_adjoint_field", poisoned)
    report = mp.solve(op, moment, mp.family_from_name(name))
    assert len(calls) > 3
    assert report.status == "Converged", report.message
    assert report.trace[1][0] < clean.trace[1][0]  # the first step was shortened


def test_as_hermitian_symmetrizes_small_defects(rng):
    h = _random_hermitian(rng, 3)
    noisy = h + 1e-14 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    out = mp.as_hermitian(noisy)
    assert np.linalg.norm(out - out.conj().T) == 0.0


def test_as_hermitian_rejects_large_defects():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        mp.as_hermitian(bad)
    # at any size: the squares in both norms underflow below about 1e-162
    # and overflow above about 1e154, so each matrix is scaled to order 1 first
    skew = np.array([[1.0, 0.5j], [0.5j, 2.0]])
    herm = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    for size in (1.0, 1e-170, 1e-300, 1e300):
        with pytest.raises(ValueError, match="not Hermitian"):
            mp.as_hermitian(size * skew)
        assert np.array_equal(mp.as_hermitian(size * herm), size * herm)
    # each entry of a batch against its own size: a tiny defect passes a
    # test scaled to the batch's largest entry
    with pytest.raises(ValueError, match="not Hermitian"):
        mp.as_hermitian(np.stack((1e-170 * skew, 1e10 * herm)))
    # inf - inf in M - M* would warn, and inf > 1e-12 inf is False, so a
    # non-finite entry is refused before the defect is taken
    for matrix in ([[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                   [[1.0, np.inf], [0.0, 1.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                mp.as_hermitian(np.array(matrix))


def test_assert_positive_definite_reports_minimum_eigenvalue():
    good = np.diag([2.0, 1.0]).astype(complex)
    assert mp.assert_positive_definite(good) == pytest.approx(1.0)
    with pytest.raises(PositivityError) as err:
        mp.assert_positive_definite(np.diag([1.0, -2.0]).astype(complex))
    assert err.value.min_eig == pytest.approx(-2.0)


def test_every_positivity_error_on_a_field_names_its_node():
    # one check serves the package: on a field it names the node with the
    # smallest eigenvalue (node 7 here, though node 3 fails first)
    grid = mp.build_grid("interval1d", (0.0, np.pi), panels=4, order=3)
    field = np.broadcast_to(np.eye(2, dtype=complex), (grid.node_count, 2, 2)).copy()
    field[3] = np.diag([1.0, -0.1])
    field[7] = np.diag([-0.5, 1.0])
    calls = {
        "matrix_log": lambda: mp.matrix_log(field),
        "assert_positive_definite": lambda: mp.assert_positive_definite(field),
        "entropy": lambda: mp.entropy(field, grid, "burg"),
        "sqrt_field": lambda: mp.weighted_exponential_family(field),
    }
    for label, call in calls.items():
        with pytest.raises(PositivityError) as err:
            call()
        assert err.value.node == 7, label
        assert err.value.min_eig == -0.5, label
        assert " at node 7 (min eig -5.000e-01, floor " in str(err.value), label

    # a single matrix has no node
    with pytest.raises(PositivityError) as err:
        mp.matrix_log(field[7])
    assert err.value.node is None
    assert str(err.value) == "matrix not positive definite (min eig -5.000e-01, floor 1.000e-12)"

    # a scalar profile is checked as a field of 1 x 1 matrices
    with pytest.raises(PositivityError) as err:
        pr.bump_mixture_density(grid, 1.0, bumps=((grid.nodes[5, 0], 0.05, -3.0),))
    assert err.value.node == 5
    assert err.value.min_eig == pytest.approx(-2.0)

    model = pr.random_state_model(n=4, m=2, seed=0)
    circle = mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4)
    g_o, _residual = pr.feedback_spectral_factor(model, circle, np.eye(4, dtype=complex))
    lam = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    eigs = np.linalg.eigvalsh(np.conj(g_o).swapaxes(1, 2) @ lam @ g_o)
    with pytest.raises(PositivityError) as err:
        pr.feedback_spectral_factor(model, circle, lam)
    assert err.value.node == int(np.argmin(np.min(eigs, axis=1)))
    assert err.value.min_eig == pytest.approx(float(np.min(eigs)), rel=1e-12)


def test_hermitian_part_and_trace_inner(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = mp.hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    x, y = _random_hermitian(rng, 3), _random_hermitian(rng, 3)
    assert mp.trace_inner(x, y) == pytest.approx(mp.trace_inner(y, x))
    assert mp.trace_inner(x, x) >= 0.0
    assert isinstance(mp.trace_inner(x, y), float)
