"""Measurement construction and scoring for two-hypothesis discrimination.

Covers both figures of merit used throughout the package: the minimum-error
probability (optimal two-outcome measurement read off the eigenspaces of the
halved state difference) and unambiguous discrimination, where wrong
identifications are forbidden and an explicit failure outcome absorbs the
rest. For states given only through their supports, the two-subspace
construction pairs up principal directions and pushes each identification
weight to the positivity boundary of the failure element. Both hypotheses
always carry prior 1/2.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import linalg
from .linalg import Subspace

__all__ = [
    "Povm",
    "PovmReport",
    "MinErrorResult",
    "UnambiguousResult",
    "validate_povm",
    "with_fail",
    "outcome_probs",
    "scored_figure",
    "helstrom",
    "unambiguous_eval",
    "unambiguous_subspace_povm",
]

#: Largest max |sum(E) - I| of a complete POVM.
SUM_TOL = 1e-10

#: Principal-vector cosines within COSINE_TOL of 1 count as a shared
#: direction, within COSINE_TOL of 0 as an orthogonal pair.
COSINE_TOL = 1e-9


#: Decision semantics of the legal POVM labels: the mode each one implies
#: and the hypothesis it names, None for the inconclusive outcome.
_LABELS = {
    "identify-1": ("unambiguous", 0),
    "identify-2": ("unambiguous", 1),
    "guess-1": ("min_error", 0),
    "guess-2": ("min_error", 1),
    "fail": ("unambiguous", None),
}


@dataclass(frozen=True, eq=False)
class Povm:
    """Named measurement elements; labels carry the decision semantics.

    Construction freezes the POVM: the elements are copied into stack, one
    read-only complex array of shape (len(labels), dim, dim), and elements
    becomes a read-only mapping of views into it. So the caller's dict and
    arrays stay its own, and editing them later changes nothing here.
    decision and scored are computed on first access and then kept;
    dataclasses.replace builds a new Povm with tables of its own.
    Equality is identity.
    """

    elements: dict
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        dims = {np.asarray(e).shape for e in self.elements.values()}
        if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
            raise ValueError(f"elements must share one square shape, got {dims}")
        stack = np.stack([np.asarray(e, dtype=complex) for e in self.elements.values()])
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", MappingProxyType(dict(zip(self.elements, stack))))

    @property
    def labels(self) -> tuple:
        return tuple(self.elements)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @functools.cached_property
    def decision(self) -> tuple:
        """(mode, mapping) fixed by the outcome labels through _LABELS.

        mapping sends each identification or guess label to the hypothesis
        index it names. Rejects a label outside _LABELS and labels that imply
        two modes, which includes a fail outcome beside minimum-error guesses.
        """
        unknown = sorted(set(self.labels) - set(_LABELS))
        if unknown:
            raise ValueError(f"unknown POVM labels {unknown}; use one of {sorted(_LABELS)}")
        modes = {_LABELS[label][0] for label in self.labels}
        if len(modes) != 1:
            raise ValueError(f"POVM labels {sorted(self.labels)} mix the modes {sorted(modes)}")
        mapping = {l: _LABELS[l][1] for l in self.labels if _LABELS[l][1] is not None}
        return modes.pop(), mapping

    @functools.cached_property
    def scored(self) -> tuple:
        """Labels whose probability on hypothesis i counts toward the figure.

        scored[i] lists, in label order, hypothesis i's own identifications
        in unambiguous mode (the figure is the success probability) and the
        guesses that name the other hypothesis in minimum-error mode (the
        figure is the error probability). Each hypothesis carries prior 1/2.
        """
        mode, mapping = self.decision
        right = mode == "unambiguous"
        return tuple(
            tuple(label for label, named in mapping.items() if (named == i) == right)
            for i in (0, 1)
        )


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


def validate_povm(povm: Povm) -> PovmReport:
    """Check Hermiticity, positivity and completeness, returning the margins.

    The thresholds are linalg.HERM_TOL, linalg.PSD_FLOOR and SUM_TOL. All
    eigensolves are one batched call on the POVM's element stack.
    """
    stack = povm.stack
    adjoint = stack.conj().transpose(0, 2, 1)
    herm = dict(zip(povm.labels, map(float, np.max(np.abs(stack - adjoint), axis=(1, 2)))))
    lowest = np.linalg.eigvalsh((stack + adjoint) / 2)[:, 0]
    min_eig = dict(zip(povm.labels, map(float, lowest)))
    completeness = float(np.max(np.abs(stack.sum(axis=0) - np.eye(povm.dim))))
    valid = (
        all(v <= linalg.HERM_TOL for v in herm.values())
        and all(v >= linalg.PSD_FLOOR for v in min_eig.values())
        and completeness <= SUM_TOL
    )
    return PovmReport(herm, min_eig, completeness, valid)


def outcome_probs(povm: Povm, rho: np.ndarray) -> dict:
    """Outcome distribution Tr(E rho) per label; must sum to 1 within 1e-10.

    All elements are applied in one stacked product on the POVM's stack.
    Each stacked item is the same C-contiguous matrix product as E @ rho
    alone, and the batched trace sums the same diagonal, so every value has
    the bits of the per-element Tr(E rho).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (povm.dim, povm.dim):
        raise ValueError(f"state shape {rho.shape} does not match POVM dim {povm.dim}")
    values = np.real(np.trace(povm.stack @ rho, axis1=1, axis2=2))
    probs = dict(zip(povm.labels, map(float, values)))
    total = sum(probs.values())
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs


def scored_figure(probs, scored) -> tuple:
    """(per_state, equal-prior figure): per_state[i] sums probs[i] over scored[i]."""
    per_state = tuple(sum(p[l] for l in labels) for p, labels in zip(probs, scored))
    return per_state, float(0.5 * sum(per_state))


@dataclass(frozen=True, eq=False)
class MinErrorResult:
    """Minimum-error discrimination data for an equal-prior state pair.

    eigenvalues are those of rho1/2 - rho2/2 in descending order;
    optimal_projectors is the two-outcome measurement ("guess-1"/"guess-2")
    that attains p_error. Equality is identity.
    """

    p_error: float
    eigenvalues: np.ndarray
    optimal_projectors: Povm


def helstrom(rho1: np.ndarray, rho2: np.ndarray) -> MinErrorResult:
    """Minimum error probability (1 - sum |eigenvalues|) / 2 and its measurement.

    Kernel directions of rho1/2 - rho2/2 cannot influence the error, so they
    are assigned to the first state.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
    lam, v = linalg.herm_eig(0.5 * rho1 - 0.5 * rho2)
    p_error = 0.5 * (1.0 - float(np.sum(np.abs(lam))))
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    cut = 1e-12 * max(1.0, scale)
    negative = lam < -cut
    positive = ~negative  # the kernel goes to the first state
    proj1 = v[:, positive] @ v[:, positive].conj().T
    proj2 = v[:, negative] @ v[:, negative].conj().T
    povm = Povm({"guess-1": proj1, "guess-2": proj2})
    return MinErrorResult(p_error, lam, povm)


@dataclass(frozen=True)
class UnambiguousResult:
    """Score of an unambiguous-discrimination measurement.

    per_state_success[i] is the probability that state i triggers one of its
    own identification outcomes; cross_talk is the largest probability of any
    identification element firing on a state it does not identify, which a
    valid unambiguous measurement keeps at numerical zero; failure_prob is
    the probability of the inconclusive outcome, averaged over the two
    hypotheses.
    """

    p_success: float
    per_state_success: tuple
    cross_talk: float
    failure_prob: float


def unambiguous_eval(povm: Povm, hypothesis_states) -> UnambiguousResult:
    """Score a POVM as an unambiguous discriminator at equal priors.

    The labels fix which hypothesis each identification element names (see
    Povm.scored); a POVM whose labels are not unambiguous is rejected, and
    its fail element, if any, is the inconclusive outcome. A state without
    any identification label simply has success probability 0 (some
    strategies can never identify one of the hypotheses).
    """
    if povm.decision[0] != "unambiguous":
        raise ValueError(f"POVM labels {sorted(povm.labels)} are not unambiguous")
    rhos = [np.asarray(r, dtype=complex) for r in hypothesis_states]
    if len(rhos) != 2:
        raise ValueError("the labels name two hypotheses: pass two states")

    probs = [outcome_probs(povm, rho) for rho in rhos]
    scored = povm.scored
    per_state, p_success = scored_figure(probs, scored)
    cross = max(
        (abs(probs[1 - i][label]) for i in (0, 1) for label in scored[i]), default=0.0
    )
    failure = float(0.5 * sum(p.get("fail", 0.0) for p in probs))
    return UnambiguousResult(p_success, per_state, cross, failure)


def with_fail(elements: dict) -> Povm:
    """Identification elements plus their complement as the fail outcome.

    The elements are subtracted from the identity one by one, in order.
    """
    fail = np.eye(np.asarray(next(iter(elements.values()))).shape[0], dtype=complex)
    for e in elements.values():
        fail = fail - e
    return Povm({**elements, "fail": fail})


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
    if not abs(lam_min) <= 1e-12:
        raise RuntimeError(
            f"pair weight {w} leaves smallest block eigenvalue {lam_min}, not 0"
        )
    return w


def unambiguous_subspace_povm(s1: Subspace, s2: Subspace) -> Povm:
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
        if c >= 1.0 - COSINE_TOL:
            continue  # common direction, indistinguishable
        if c <= COSINE_TOL:
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
    return with_fail({"identify-1": e1, "identify-2": e2})
