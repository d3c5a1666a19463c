"""Test states and wire-pair projectors used by the discrimination scenarios.

States are plain complex vectors in the computational basis with qubit 0 as
the leftmost factor. Operators that act on a chosen wire pair are always
built on adjacent leading wires and then moved into place with
``permute_qubits``, so there is exactly one embedding code path to get wrong.
"""

from __future__ import annotations

import numpy as np

from . import linalg

NORM_TOL = 1e-12
TRACE_TOL = 1e-12

_BELL = {
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
}


def ket(bits: str) -> np.ndarray:
    """Computational basis state from a bit string, e.g. ket("010")."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a nonempty string of 0s and 1s, got {bits!r}")
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def assert_normalized(psi: np.ndarray) -> None:
    nrm = float(np.linalg.norm(psi))
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {nrm} deviates from 1 by more than {NORM_TOL}")


def check_density(rho: np.ndarray) -> None:
    """Validate a density matrix: Hermitian, unit trace, no real negativity.

    The thresholds are linalg.HERM_TOL, TRACE_TOL and linalg.PSD_FLOOR.
    Raises ValueError describing the first violated property.
    """
    rho = np.asarray(rho)
    herr = linalg.hermiticity_error(rho)
    if not herr <= linalg.HERM_TOL:
        raise ValueError(f"density matrix not Hermitian (deviation {herr:.3g})")
    terr = abs(complex(np.trace(rho)) - 1.0)
    if not terr <= TRACE_TOL:
        raise ValueError(f"density matrix trace off by {terr:.3g}")
    lam_min = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    if not lam_min >= linalg.PSD_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {lam_min:.3g} below {linalg.PSD_FLOOR}")


def bell(kind: str) -> np.ndarray:
    """One of the four Bell states: "psi-", "psi+", "phi-", "phi+"."""
    if kind not in _BELL:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL)}")
    return _BELL[kind].copy()


def embed_operator(op: np.ndarray, wires, n: int) -> np.ndarray:
    """Embed an operator acting on the given wires into an n-wire register.

    Parameters
    ----------
    op : ndarray
        Operator on len(wires) qubits; its factor k acts on wires[k].
    wires : sequence of int
        Distinct target wires.
    n : int
        Total register size.
    """
    wires = tuple(int(w) for w in wires)
    k = len(wires)
    if len(set(wires)) != k or any(w < 0 or w >= n for w in wires):
        raise ValueError(f"wires {wires} are not distinct wires of a {n}-qubit register")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} wires")
    full = op if n == k else np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # Factor k lands on wires[k] and the identity fills the rest in order.
    rest = tuple(w for w in range(n) if w not in wires)
    return linalg.permute_qubits(full, np.argsort(wires + rest))


def sym_antisym_projectors(pair, n: int):
    """Projectors onto the symmetric/antisymmetric sectors of one wire pair.

    Returns the tuple (P_sym, P_anti) acting on the full n-wire register.
    P_anti is the embedded singlet projector, rank 2**(n-2); P_sym is its
    complement (triplet sector tensor everything else), so the two always sum
    to the identity.
    """
    i, j = (int(pair[0]), int(pair[1]))
    if i == j:
        raise ValueError("pair wires must differ")
    p_anti = embed_operator(density(_BELL["psi-"]), (i, j), n)
    p_sym = np.eye(2**n, dtype=complex) - p_anti
    return p_sym, p_anti


def four_qubit_test_state() -> np.ndarray:
    """Four-wire input that tags which pair holds a singlet on wire D.

    In the (A, B, C, D) basis: a singlet on AC with B = D = |0>, plus a
    singlet on BC with A = |0> and D = |1>, over sqrt 2. The two branches
    share no basis state, so the amplitudes are exactly +-1/2.
    """
    psi = (ket("0010") - ket("1000") + ket("0011") - ket("0101")) / 2
    assert_normalized(psi)
    return psi


def approx_double_singlet_3q() -> np.ndarray:
    """Three-wire state that is 3/4-close to a singlet on both AC and BC.

    Amplitudes: (|100> + |010> + |011> + |101>)/(2 sqrt 3)
    minus (|001> + |110>)/sqrt(3).
    """
    v = np.zeros(8, dtype=complex)
    s = 1.0 / (2.0 * np.sqrt(3.0))
    t = 1.0 / np.sqrt(3.0)
    for b in ("100", "010", "011", "101"):
        v[int(b, 2)] = s
    for b in ("001", "110"):
        v[int(b, 2)] = -t
    assert_normalized(v)
    return v


def double_singlet() -> np.ndarray:
    """Four-wire product of a singlet on AC and a singlet on BD."""
    return linalg.permute_qubits(np.kron(bell("psi-"), bell("psi-")), (0, 2, 1, 3))
