import numpy as np
import pytest

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
