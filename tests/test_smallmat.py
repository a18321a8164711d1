"""Tests for the small dense linear-algebra layer."""

import numpy as np
import pytest

from sctomo import smallmat
from sctomo.errors import NonHermitianInput, WrongDimension


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def test_expi_neg_zero_generator_is_identity():
    u = smallmat.expi_neg(np.zeros((2, 2)))
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_expi_neg_half_turn_swaps_basis_states():
    # hz=0, hc=pi, phi=0: a half turn about x
    g = 0.5 * np.array([[0, np.pi], [np.pi, 0]], dtype=complex)
    u = smallmat.expi_neg(g)
    assert abs(abs(u[0, 1]) - 1.0) < 1e-12
    assert abs(u[0, 0]) < 1e-12


def test_expi_neg_vtype_eigenphases():
    # couplings (3, 4): spectral span 5, eigenphases exp(-i * {-2.5, 0, 2.5})
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = g[1, 0] = 1.5
    g[0, 2] = g[2, 0] = 2.0
    u = smallmat.expi_neg(g)
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    expected = np.sort(np.angle(np.exp(-1j * np.array([-2.5, 0.0, 2.5]))))
    assert np.allclose(phases, expected, atol=1e-12)


def test_expi_neg_unitary_and_inverse():
    rng = np.random.default_rng(11)
    for k in range(1000):
        dim = 2 + k % 7  # dimensions 2..8
        g = random_hermitian(dim, rng)
        u = smallmat.expi_neg(g)
        v = smallmat.expi_neg(-g)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12
        assert np.abs(u @ v - np.eye(dim)).max() < 1e-12


def test_expi_neg_matches_axis_angle_form_for_qubits():
    # test oracle: U = cos(Omega/2) I - i sin(Omega/2) (unit Bloch . sigma)
    rng = np.random.default_rng(12)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(200):
        hz, hc, phi = rng.uniform(-4, 4), rng.uniform(0, 5), rng.uniform(0, 7)
        g = 0.5 * np.array([[hz, np.exp(-1j * phi) * hc],
                            [np.exp(1j * phi) * hc, -hz]])
        omega = np.hypot(hc, hz)
        if omega == 0:
            continue
        axis = np.array([hc * np.cos(phi), hc * np.sin(phi), hz]) / omega
        rodrigues = (np.cos(omega / 2) * np.eye(2)
                     - 1j * np.sin(omega / 2)
                     * (axis[0] * sx + axis[1] * sy + axis[2] * sz))
        assert np.abs(smallmat.expi_neg(g) - rodrigues).max() < 1e-12


def test_expi_neg_batch_matches_scalar():
    rng = np.random.default_rng(13)
    gs = np.stack([random_hermitian(3, rng) for _ in range(40)])
    batch = smallmat.expi_neg_batch(gs)
    for k in range(40):
        assert np.abs(batch[k] - smallmat.expi_neg(gs[k])).max() < 1e-13


def test_trace_cyclicity():
    rng = np.random.default_rng(14)
    for _ in range(200):
        dim = rng.integers(2, 9)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12 * max(
            1.0, abs(np.trace(a @ b)))


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        smallmat.expi_neg(bad)


def test_dimension_guard():
    with pytest.raises(WrongDimension):
        smallmat.expi_neg(np.zeros((9, 9)))
    with pytest.raises(WrongDimension):
        smallmat.expi_neg(np.zeros((1, 1)))
    with pytest.raises(WrongDimension):
        smallmat.expi_neg(np.zeros((2, 3)))
