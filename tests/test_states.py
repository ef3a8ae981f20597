import numpy as np
import pytest

from wehrl import check_density_matrix, random_density_matrix


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
