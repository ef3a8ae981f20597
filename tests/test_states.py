import numpy as np
import pytest
from density_oracle import check_density_matrix_by_eigvalsh

from wehrl import check_density_matrix, check_state_vector, random_density_matrix, random_state_vector


def _stack(rng, n=5, d=3):
    return np.stack([random_density_matrix(d, rng) for _ in range(n)])


def test_check_density_matrix_accepts_a_stack(rng):
    rhos = _stack(rng)
    assert np.array_equal(check_density_matrix(rhos, 3), rhos)
    assert np.array_equal(check_density_matrix(rhos.reshape(5, 1, 3, 3)), rhos.reshape(5, 1, 3, 3))


@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda r: r + np.diag([1e-6, 0.0], k=1), "not Hermitian"),
        (lambda r: np.diag([0.75, 0.75, 0.0]).astype(complex), r"trace \(1\.5\+0j\)"),
        (lambda r: np.diag([1.2, -0.2, 0.0]).astype(complex), "not positive semidefinite"),
    ],
)
def test_check_density_matrix_rejects_one_bad_member(rng, defect, message):
    rhos = _stack(rng)
    rhos[2] = defect(rhos[2])
    with pytest.raises(ValueError, match=message):
        check_density_matrix(rhos)


def test_check_density_matrix_rejects_non_square_or_wrong_dimension(rng):
    with pytest.raises(ValueError, match="square"):
        check_density_matrix(np.zeros((4, 3, 2)))
    with pytest.raises(ValueError, match="expected 4"):
        check_density_matrix(_stack(rng), 4)


def test_check_density_matrix_rejects_non_finite_entries(rng):
    for bad in (np.nan, np.inf):
        rhos = _stack(rng)
        rhos[1, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_density_matrix(rhos)


def _verdict(check, rho, **tols):
    try:
        check(rho, **tols)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _with_smallest_eigenvalue(d, smallest, rng):
    """A Hermitian unit-trace matrix, randomly rotated, whose smallest eigenvalue is `smallest`."""
    rest = rng.uniform(0.5, 1.0, d - 1)
    eig = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rho = (u * eig) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


_SMALLEST = (0.0, -4e-11, -6e-11, -9.9e-11, -1.01e-10, -2e-10)


def _boundary_cases(d, rng):
    cases = [np.outer(psi, psi.conj()) for psi in (np.eye(d)[d - 1], random_state_vector(d, rng))]
    if d == 1:
        return cases + [np.array([[1.0 - 5e-11]])]
    cases += [_with_smallest_eigenvalue(d, lam, rng) for lam in _SMALLEST]
    return cases + [np.diag([1.0 + 5e-11, -5e-11] + [0.0] * (d - 2))]


@pytest.mark.parametrize("d", [1, 2, 8, 64])
@pytest.mark.parametrize("eig_tol", [1e-10, 0.0])
def test_check_density_matrix_matches_eigvalsh_oracle(rng, d, eig_tol, monkeypatch):
    monkeypatch.setattr("wehrl.states._EIG_TOL", eig_tol)
    cases = _boundary_cases(d, rng)
    verdicts = [_verdict(check_density_matrix, rho) for rho in cases]
    assert verdicts == [
        _verdict(check_density_matrix_by_eigvalsh, rho, eig_tol=eig_tol) for rho in cases
    ]
    if d > 1 and eig_tol:
        # in order: two projectors, then _SMALLEST, then the shifted diagonal
        assert [v == "accepted" for v in verdicts] == [True] * 6 + [False, False, True]
    stack = np.stack(cases)
    assert _verdict(check_density_matrix, stack) == _verdict(
        check_density_matrix_by_eigvalsh, stack, eig_tol=eig_tol
    )


@pytest.mark.parametrize("d", [8, 64])
def test_check_density_matrix_with_no_eig_tol_matches_eigvalsh_oracle(rng, d, monkeypatch):
    # with no room for rounding, Cholesky and eigvalsh disagree on some
    # singular matrices, so eigvalsh alone must decide
    monkeypatch.setattr("wehrl.states._EIG_TOL", 0.0)
    for _ in range(20):
        rho = _with_smallest_eigenvalue(d, 0.0, rng)
        assert _verdict(check_density_matrix, rho) == _verdict(
            check_density_matrix_by_eigvalsh, rho, eig_tol=0.0
        )


def test_check_density_matrix_names_the_worst_member(rng):
    rhos = _stack(rng, n=6, d=8)
    rhos[1] = _with_smallest_eigenvalue(8, -2e-10, rng)
    rhos[4] = _with_smallest_eigenvalue(8, -3e-10, rng)
    rhos[5] = _with_smallest_eigenvalue(8, -6e-11, rng)
    want = _verdict(check_density_matrix_by_eigvalsh, rhos)
    prefix = "density matrix is not positive semidefinite (min eigenvalue "
    assert want.startswith(prefix)
    assert float(want[len(prefix):-1]) == pytest.approx(-3e-10, abs=1e-15)
    assert _verdict(check_density_matrix, rhos) == want
    assert _verdict(check_density_matrix, np.delete(rhos, [1, 4], axis=0)) == "accepted"


def test_check_state_vector_accepts_a_stack(rng):
    psis = np.stack([random_state_vector(4, rng) for _ in range(6)])
    assert np.array_equal(check_state_vector(psis, 4), psis)
    assert np.array_equal(check_state_vector(psis.reshape(2, 3, 4)), psis.reshape(2, 3, 4))


def test_check_state_vector_rejects_one_bad_member(rng):
    psis = np.stack([random_state_vector(4, rng) for _ in range(6)])
    psis[3] *= 1.5
    with pytest.raises(ValueError, match="norm 1.5"):
        check_state_vector(psis)
    with pytest.raises(ValueError, match="expected 3"):
        check_state_vector(psis, 3)
    with pytest.raises(ValueError, match="one-dimensional"):
        check_state_vector(np.complex128(1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_check_state_vector_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so a norm test alone lets it through
    with pytest.raises(ValueError, match="non-finite"):
        check_state_vector(np.array([bad, 0.0]))
