"""Dense complex linear algebra for small multi-qubit registers.

Everything operates on plain numpy arrays: states are 1-d complex vectors of
length 2**n, operators are 2**n x 2**n complex matrices. Qubit 0 is always
the leftmost tensor factor, so basis index 0b011 on three wires means wire 0
in |0> and wires 1, 2 in |1>. Ambient dimensions stay at or below 2**6, so
nothing here tries to be clever about sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances shared across the package. A matrix counts as Hermitian when the
# entrywise deviation from its adjoint stays below HERM_TOL; RANK_TOL is the
# default relative eigenvalue cutoff for range extraction.
HERM_TOL = 1e-12
RANK_TOL = 1e-10

#: Annotation alias for 2-d complex arrays; "Hermitian" anywhere in this
#: package means hermiticity_error(m) <= HERM_TOL.
ComplexMatrix = np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues sorted in descending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, column i belonging to
        eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Subspace:
    """A subspace of an ambient state space, held as an orthonormal basis.

    Attributes
    ----------
    ambient_dim : int
        Dimension of the surrounding space.
    basis : ndarray
        Array of shape (ambient_dim, dim) whose columns are orthonormal.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis shape {basis.shape} does not match ambient dim {self.ambient_dim}"
            )
        if basis.shape[1]:
            gram = basis.conj().T @ basis
            err = float(np.max(np.abs(gram - np.eye(basis.shape[1]))))
            if err > 1e-10:
                raise ValueError(f"basis columns are not orthonormal (deviation {err:.3g})")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def num_qubits(dim: int) -> int:
    """Wire count for an ambient dimension, rejecting non-powers of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or vectors).

    Parameters
    ----------
    a, b : ndarray
        Factors; output dimensions are the products of the input dimensions.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def permute_qubits(m: np.ndarray, perm) -> np.ndarray:
    """Reorder the tensor factors of a state vector or square operator.

    Parameters
    ----------
    m : ndarray
        1-d state vector or square matrix over n qubits.
    perm : sequence of int
        Bijection on 0..n-1; perm[k] is the input wire that lands at output
        position k, so perm=(2, 3, 0, 1) on wires (A, B, C, D) yields the
        ordering (C, D, A, B). Applying perm and then its argsort restores
        the input.

    Returns
    -------
    ndarray
        Same kind of object as the input with factors relabelled.
    """
    m = np.asarray(m, dtype=complex)
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a bijection on 0..{n - 1}")
    dim = 2**n
    if m.ndim == 1:
        if m.shape[0] != dim:
            raise ValueError(f"vector length {m.shape[0]} does not match {n} qubits")
        return m.reshape((2,) * n).transpose(perm).reshape(dim)
    if m.ndim == 2:
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match {n} qubits")
        axes = perm + tuple(p + n for p in perm)
        return m.reshape((2,) * (2 * n)).transpose(axes).reshape(dim, dim)
    raise ValueError("expected a state vector or a square matrix")


def partial_trace(m: np.ndarray, keep) -> np.ndarray:
    """Trace out every wire not listed in keep.

    Parameters
    ----------
    m : ndarray
        Square operator on n qubits.
    keep : iterable of int
        Wires to retain; they keep their relative order in the output.

    Returns
    -------
    ndarray
        Operator on the kept wires, shape (2**k, 2**k).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    n = num_qubits(m.shape[0])
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep={keep} is not a subset of wires 0..{n - 1}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError(f"register of {n} wires is larger than supported")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for w in range(n):
        if w not in keep:
            col[w] = row[w]  # repeated index contracts (traces) that wire
    out = "".join(row[w] for w in keep) + "".join(letters[n + w] for w in keep)
    sub = "".join(row) + "".join(col) + "->" + out
    d = 2 ** len(keep)
    return np.einsum(sub, m.reshape((2,) * (2 * n))).reshape(d, d)


def hermiticity_error(m: np.ndarray) -> float:
    """Largest entrywise deviation of a matrix from its adjoint."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def herm_eig(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    ValueError
        If the input fails the Hermiticity check.
    """
    m = np.asarray(m, dtype=complex)
    err = hermiticity_error(m)
    if err > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {err:.3g})")
    vals, vecs = np.linalg.eigh(m)
    return Spectrum(vals[::-1].copy(), vecs[:, ::-1].copy())


def abs_eig_sum(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (its trace norm)."""
    return float(np.sum(np.abs(herm_eig(m).eigenvalues)))


def range_basis(rho: np.ndarray, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the range (support) of a Hermitian PSD matrix.

    Keeps eigenvectors whose eigenvalue exceeds tol times the largest one,
    so numerical noise far below the relative cutoff never inflates the rank.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    spec = herm_eig(rho)
    lam_max = spec.eigenvalues[0] if spec.eigenvalues.size else 0.0
    mask = spec.eigenvalues > tol * lam_max if lam_max > 0 else spec.eigenvalues > 0
    return Subspace(rho.shape[0], spec.eigenvectors[:, mask].copy())
