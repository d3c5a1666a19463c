"""Measurement construction and scoring for two-hypothesis discrimination.

Covers both figures of merit used throughout the package: the minimum-error
probability (optimal two-outcome measurement read off the eigenspaces of the
weighted state difference) and unambiguous discrimination, where wrong
identifications are forbidden and an explicit failure outcome absorbs the
rest. For states given only through their supports, the two-subspace
construction pairs up principal directions and pushes each identification
weight to the positivity boundary of the failure element.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import haar, linalg, states
from .linalg import Subspace

__all__ = [
    "Povm",
    "PovmReport",
    "MinErrorResult",
    "UnambiguousResult",
    "WeightScanRow",
    "Subspace",
    "validate_povm",
    "outcome_probs",
    "helstrom",
    "singlet_weight_scan",
    "unambiguous_eval",
    "jordan_bases",
    "unambiguous_subspace_povm",
]

CROSS_TALK_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """Named measurement elements; labels carry the decision semantics."""

    elements: dict

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        dims = {np.asarray(e).shape for e in self.elements.values()}
        if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
            raise ValueError(f"elements must share one square shape, got {dims}")

    @property
    def labels(self) -> tuple:
        return tuple(self.elements)

    @property
    def dim(self) -> int:
        return next(iter(self.elements.values())).shape[0]


@dataclass(frozen=True)
class PovmReport:
    """Per-element margins from validate_povm.

    hermiticity maps label to max |E - E+|; min_eigenvalue maps label to the
    smallest eigenvalue; completeness is max |sum(E) - I|.
    """

    hermiticity: dict
    min_eigenvalue: dict
    completeness: float
    valid: bool


def validate_povm(
    povm: Povm,
    herm_tol: float = 1e-12,
    psd_floor: float = -1e-10,
    sum_tol: float = 1e-10,
) -> PovmReport:
    """Check Hermiticity, positivity and completeness, returning the margins."""
    herm = {}
    min_eig = {}
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for label, e in povm.elements.items():
        e = np.asarray(e, dtype=complex)
        herm[label] = linalg.hermiticity_error(e)
        min_eig[label] = float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2)))
        total += e
    completeness = float(np.max(np.abs(total - np.eye(povm.dim))))
    valid = (
        all(v <= herm_tol for v in herm.values())
        and all(v >= psd_floor for v in min_eig.values())
        and completeness <= sum_tol
    )
    return PovmReport(herm, min_eig, completeness, valid)


def outcome_probs(povm: Povm, rho: np.ndarray) -> dict:
    """Outcome distribution Tr(E rho) per label; must sum to 1 within 1e-10."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (povm.dim, povm.dim):
        raise ValueError(f"state shape {rho.shape} does not match POVM dim {povm.dim}")
    probs = {
        label: float(np.real(np.trace(np.asarray(e) @ rho)))
        for label, e in povm.elements.items()
    }
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs


@dataclass(frozen=True)
class MinErrorResult:
    """Minimum-error discrimination data for a weighted state pair.

    eigenvalues are those of p1*rho1 - p2*rho2 in descending order;
    optimal_projectors is the two-outcome measurement ("guess-1"/"guess-2")
    that attains p_error.
    """

    p_error: float
    eigenvalues: np.ndarray
    optimal_projectors: Povm


def helstrom(
    rho1: np.ndarray, rho2: np.ndarray, p1: float = 0.5, p2: float = 0.5
) -> MinErrorResult:
    """Minimum error probability (1 - sum |eigenvalues|) / 2 and its measurement.

    Kernel directions of p1*rho1 - p2*rho2 cannot influence the error, so
    they are assigned to the higher-prior state, and to the first state on an
    exact prior tie.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
    if p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-12:
        raise ValueError(f"priors ({p1}, {p2}) must be nonnegative and sum to 1")
    spec = linalg.herm_eig(p1 * rho1 - p2 * rho2)
    lam = spec.eigenvalues
    p_error = 0.5 * (1.0 - float(np.sum(np.abs(lam))))
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    cut = 1e-12 * max(1.0, scale)
    positive = lam > cut
    negative = lam < -cut
    kernel = ~(positive | negative)
    if p1 >= p2:  # ties go to the first state
        positive |= kernel
    else:
        negative |= kernel
    v = spec.eigenvectors
    proj1 = v[:, positive] @ v[:, positive].conj().T
    proj2 = v[:, negative] @ v[:, negative].conj().T
    povm = Povm({"guess-1": proj1, "guess-2": proj2})
    return MinErrorResult(p_error, lam, povm)


@dataclass(frozen=True)
class WeightScanRow:
    """One grid point of singlet_weight_scan."""

    singlet_weight: float
    trace_norm: float
    closed_form: float
    p_error: float


def singlet_weight_scan(grid) -> list:
    """Sweep the singlet fraction of a two-wire test state against noise.

    For each weight w in the grid, builds sqrt(w)|psi-> + sqrt(1-w)|psi+>,
    averages it under the same box on both wires (exact engine), and compares
    the trace norm of the difference from the maximally mixed state against
    the closed form 2|1/4 - w|. Also reports the equal-prior minimum error
    probability, which is smallest at w = 1: the singlet is the best choice
    of test state in this family.
    """
    rows = []
    eye4 = np.eye(4, dtype=complex) / 4.0
    for w in grid:
        w = float(w)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"singlet weight {w} outside [0, 1]")
        psi = states.bell_combination(np.sqrt(w), np.sqrt(1.0 - w), 0.0, 0.0)
        rho1 = haar.average_pattern(psi, "UU").rho
        delta = rho1 - eye4
        trace_norm = linalg.abs_eig_sum(delta)
        p_error = helstrom(rho1, eye4).p_error
        rows.append(WeightScanRow(w, trace_norm, 2.0 * abs(0.25 - w), p_error))
    return rows


@dataclass(frozen=True)
class UnambiguousResult:
    """Score of an unambiguous-discrimination measurement.

    per_state_success[i] is the probability that state i triggers one of its
    own identification outcomes; cross_talk is the largest probability of any
    identification element firing on a state it does not identify, which a
    valid unambiguous measurement keeps at numerical zero; failure_prob is
    the prior-weighted probability of the inconclusive outcome.
    """

    p_success: float
    per_state_success: tuple
    cross_talk: float
    failure_prob: float


def unambiguous_eval(povm: Povm, hypothesis_states, priors, mapping: dict) -> UnambiguousResult:
    """Score a labelled POVM as an unambiguous discriminator.

    mapping sends identification labels to hypothesis indices; at most one
    POVM element may stay unmapped and becomes the failure outcome. A state
    without any identification label simply has success probability 0 (some
    strategies can never identify one of the hypotheses).
    """
    rhos = [np.asarray(r, dtype=complex) for r in hypothesis_states]
    priors = [float(p) for p in priors]
    if len(priors) != len(rhos):
        raise ValueError("need one prior per hypothesis state")
    if any(p < 0 for p in priors) or abs(sum(priors) - 1.0) > 1e-12:
        raise ValueError(f"priors {priors} must be nonnegative and sum to 1")
    unknown = sorted(set(mapping) - set(povm.labels))
    if unknown:
        raise ValueError(f"mapping references missing POVM elements {unknown}")
    bad_targets = {l: i for l, i in mapping.items() if not 0 <= int(i) < len(rhos)}
    if bad_targets:
        raise ValueError(f"mapping targets invalid hypothesis indices: {bad_targets}")
    unmapped = [l for l in povm.labels if l not in mapping]
    if len(unmapped) > 1:
        raise ValueError(
            f"elements {unmapped} are all unmapped; only one failure outcome is allowed"
        )

    probs = [outcome_probs(povm, rho) for rho in rhos]
    per_state = tuple(
        sum(p[label] for label, idx in mapping.items() if int(idx) == i)
        for i, p in enumerate(probs)
    )
    cross = 0.0
    for label, idx in mapping.items():
        for j, p in enumerate(probs):
            if j != int(idx):
                cross = max(cross, abs(p[label]))
    p_success = float(sum(pr * s for pr, s in zip(priors, per_state)))
    failure = (
        float(sum(pr * p[unmapped[0]] for pr, p in zip(priors, probs)))
        if unmapped
        else 0.0
    )
    return UnambiguousResult(p_success, per_state, cross, failure)


def _principal_vectors(s1: Subspace, s2: Subspace):
    """Principal vectors of two subspaces of one ambient space, with cosines.

    Returns (u, v, cosines): the columns of u are an orthonormal basis of s1
    and those of v of s2, with <u_i|v_j> = cosines[i] * delta_ij for the
    min(s1.dim, s2.dim) leading columns; cosines descend and are clipped to
    [0, 1]. The remaining columns are the unpaired directions.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if min(s1.dim, s2.dim) == 0:
        return s1.basis, s2.basis, np.zeros(0)
    left, cosines, right_h = np.linalg.svd(s1.basis.conj().T @ s2.basis)
    return s1.basis @ left, s2.basis @ right_h.conj().T, np.clip(cosines, 0.0, 1.0)


def jordan_bases(s1: Subspace, s2: Subspace) -> list:
    """Principal vector pairs of two subspaces with their overlap cosines.

    Returns [(u_i, v_i, cos_i), ...] sorted by descending cosine, where the
    u_i are an orthonormal basis of (part of) s1, the v_i of s2, and
    <u_i|v_j> = cos_i * delta_ij. Cosine 1 marks a shared direction, cosine 0
    an orthogonal pair. Unpaired directions (when the dimensions differ) are
    not returned here; the POVM construction handles them internally.
    """
    u, v, cosines = _principal_vectors(s1, s2)
    return [(u[:, i].copy(), v[:, i].copy(), float(c)) for i, c in enumerate(cosines)]


def _pair_weight(u: np.ndarray, v: np.ndarray, z_u: np.ndarray, z_v: np.ndarray, c: float) -> float:
    """Boundary weight 1/(1+c) of one overlapping pair, checked on its block.

    On span{u, v}, I - w(|z_u><z_u| + |z_v><z_v|) must keep its smallest
    eigenvalue at 0 within 1e-12: not below, so the failure element stays
    positive, and not above, so the weight sits on the positivity boundary.
    """
    w = 1.0 / (1.0 + c)
    q2 = v - (u.conj() @ v) * u
    q2 /= np.linalg.norm(q2)
    basis = np.column_stack([u, q2])
    block = basis.conj().T @ (np.outer(z_u, z_u.conj()) + np.outer(z_v, z_v.conj())) @ basis
    lam_min = float(np.min(np.linalg.eigvalsh(np.eye(2) - w * block)))
    if abs(lam_min) > 1e-12:
        raise RuntimeError(
            f"pair weight {w} leaves smallest block eigenvalue {lam_min}, not 0"
        )
    return w


def unambiguous_subspace_povm(
    s1: Subspace, s2: Subspace, *, cosine_tol: float = 1e-9
) -> Povm:
    """Unambiguous measurement for states known only through their supports.

    Pairs up the principal directions of the two supports. Shared directions
    (cosine 1) can never be told apart and are dropped. Orthogonal pairs
    (cosine 0) and unpaired directions are identified with certainty. Every
    genuinely overlapping pair contributes one rank-one element per side,
    built on the direction orthogonal to the opposing vector within the pair
    block, with the symmetric weight pushed to the positivity boundary of the
    failure element, 1/(1+cosine); unless that weight leaves the pair block's
    smallest eigenvalue at 0 within 1e-12, construction aborts.

    If one support contains the other, the contained state can never be
    identified; that degenerate case is flagged with a warning and a zero
    identification element rather than an error.
    """
    u, v, cosines = _principal_vectors(s1, s2)
    dim = s1.ambient_dim

    e1 = np.zeros((dim, dim), dtype=complex)
    e2 = np.zeros((dim, dim), dtype=complex)
    paired = len(cosines)
    for i, c in enumerate(cosines):
        ui, vi = u[:, i], v[:, i]
        if c >= 1.0 - cosine_tol:
            continue  # common direction, indistinguishable
        if c <= cosine_tol:
            e1 += np.outer(ui, ui.conj())
            e2 += np.outer(vi, vi.conj())
            continue
        z_u = ui - (vi.conj() @ ui) * vi  # orthogonal to v_i within the block
        z_u /= np.linalg.norm(z_u)
        z_v = vi - (ui.conj() @ vi) * ui
        z_v /= np.linalg.norm(z_v)
        w = _pair_weight(ui, vi, z_u, z_v, c)
        e1 += w * np.outer(z_u, z_u.conj())
        e2 += w * np.outer(z_v, z_v.conj())
    for i in range(paired, s1.dim):
        e1 += np.outer(u[:, i], u[:, i].conj())
    for i in range(paired, s2.dim):
        e2 += np.outer(v[:, i], v[:, i].conj())

    for name, e in (("first", e1), ("second", e2)):
        if float(np.max(np.abs(e))) == 0.0:
            warnings.warn(
                f"the {name} support lies inside the other; that state can "
                "never be identified unambiguously",
                stacklevel=2,
            )
    fail = np.eye(dim, dtype=complex) - e1 - e2
    return Povm({"identify-1": e1, "identify-2": e2, "fail": fail})
