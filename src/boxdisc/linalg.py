"""Dense complex linear algebra for small multi-qubit registers.

Everything operates on plain numpy arrays: states are 1-d complex vectors of
length 2**n, operators are 2**n x 2**n complex matrices, and an
eigendecomposition is the pair (eigenvalues, eigenvectors). The one type is
Subspace, an orthonormal basis checked once at construction. Qubit 0 is always
the leftmost tensor factor, so basis index 0b011 on three wires means wire 0
in |0> and wires 1, 2 in |1>. Ambient dimensions stay at or below 2**6, so
nothing here tries to be clever about sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances shared across the package. A matrix counts as Hermitian when the
# entrywise deviation from its adjoint stays below HERM_TOL; RANK_TOL is the
# relative eigenvalue cutoff for range extraction; an eigenvalue below
# PSD_FLOOR makes a density matrix or a POVM element not positive.
HERM_TOL = 1e-12
RANK_TOL = 1e-10
PSD_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of an ambient state space, held as an orthonormal basis.

    basis is an array of shape (ambient_dim, dim) whose columns are
    orthonormal; both dimensions are read off its shape. Equality is
    identity.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got shape {basis.shape}")
        if basis.shape[1]:
            gram = basis.conj().T @ basis
            err = float(np.max(np.abs(gram - np.eye(basis.shape[1]))))
            if not err <= 1e-10:
                raise ValueError(f"basis columns are not orthonormal (deviation {err:.3g})")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


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
        Same kind of object and dtype as the input with factors relabelled.
    """
    m = np.asarray(m)
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


def hermiticity_error(m: np.ndarray) -> float:
    """Largest entrywise deviation of a matrix from its adjoint."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def herm_eig(m: np.ndarray) -> tuple:
    """Eigendecomposition (eigenvalues, eigenvectors) of a Hermitian matrix.

    The real eigenvalues descend, and column i of eigenvectors belongs to
    eigenvalues[i]; the columns are orthonormal.

    Raises
    ------
    ValueError
        If the input fails the Hermiticity check.
    """
    m = np.asarray(m, dtype=complex)
    err = hermiticity_error(m)
    if not err <= HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {err:.3g})")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def range_basis(rho: np.ndarray) -> Subspace:
    """Orthonormal basis of the range (support) of a Hermitian PSD matrix.

    Keeps eigenvectors whose eigenvalue exceeds RANK_TOL times the largest
    one, so numerical noise far below the relative cutoff never inflates the
    rank.
    """
    vals, vecs = herm_eig(rho)
    lam_max = vals[0] if vals.size else 0.0
    mask = vals > RANK_TOL * lam_max if lam_max > 0 else vals > 0
    return Subspace(vecs[:, mask].copy())
