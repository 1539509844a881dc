"""Shared random-object generators (all seeded), reference Kraus sets, a
CPTP check and the golden CSV comparison for the test suite."""

import itertools

import numpy as np
import pytest

from qcollide.qmat import PAULIS, DensityMatrix, QubitRegister, nkron


def random_density(rng, n_qubits, labels=None, rank=None):
    """Ginibre-random density matrix on n_qubits."""
    d = 2**n_qubits
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    labels = labels or [f"q{i}" for i in range(n_qubits)]
    return DensityMatrix(QubitRegister(labels), mat, validate=False)


def random_pure(rng, n_qubits, labels=None):
    d = 2**n_qubits
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    labels = labels or [f"q{i}" for i in range(n_qubits)]
    return DensityMatrix(QubitRegister(labels), np.outer(v, v.conj()), validate=False)


def random_unitary(rng, d):
    """Haar-random d x d unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def amplitude_damping_kraus(gamma):
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]


def phase_damping_kraus(lam):
    return [np.sqrt(1 - lam) * np.eye(2),
            np.sqrt(lam) * np.diag([1.0, 0.0]).astype(complex),
            np.sqrt(lam) * np.diag([0.0, 1.0]).astype(complex)]


def depolarizing_kraus(p, n_qubits=1):
    """√w P over the Pauli strings P of n qubits, w = 1 - p + p/d² for the
    identity and p/d² for the others."""
    d = 2**n_qubits
    ops = []
    for i, name in enumerate(itertools.product("IXYZ", repeat=n_qubits)):
        w = (1 - p) + p / d**2 if i == 0 else p / d**2
        ops.append(np.sqrt(w) * nkron(*(PAULIS[c] for c in name)))
    return ops


def assert_cptp(ch, tol):
    """Assert that a channel is CPTP within tol: the Choi reshuffle of its
    superoperator is Hermitian and positive semidefinite (minimum eigenvalue
    >= -tol), and Tr E(|i><j|) = δ_ij."""
    d_out, d_in = ch.out_dim, ch.in_dim
    # superop[(a, b), (i, j)] = E(|i><j|)[a, b]; the Choi entry is [(a, i), (b, j)].
    choi = ch.superop.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3)
    choi = choi.reshape(d_out * d_in, d_out * d_in)
    assert np.abs(choi - choi.conj().T).max() <= tol
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -tol
    # Tracing the output a leaves Tr E(|i><j|) = δ_ij.
    traced = np.einsum("aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in))
    assert np.abs(traced - np.eye(d_in)).max() <= tol


def _csv_values(cell: str):
    """A CSV cell as a list of floats, or the cell itself if it is not numeric
    (``rhp_series`` cells are ``n:value`` pairs joined by ``;``)."""
    try:
        return [float(part.split(":")[-1]) for part in cell.split(";")]
    except ValueError:
        return cell


def assert_csv_matches_golden(got, want, where, tol):
    """Assert that the CSV rows ``got`` have the frozen rows ``want``'s shape,
    each numeric cell within tol of its frozen value and every other cell
    equal; ``where`` names the file in a failure."""
    assert len(got) == len(want), where
    for want_row, got_row in zip(want, got):
        assert len(got_row) == len(want_row), (where, want_row)
        for want_cell, cell in zip(want_row, got_row):
            w, g = _csv_values(want_cell), _csv_values(cell)
            if isinstance(w, str) or isinstance(g, str):
                assert cell == want_cell, (where, want_row)
            else:
                assert len(g) == len(w)
                assert max(abs(a - b) for a, b in zip(g, w)) <= tol, (where, want_row)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
