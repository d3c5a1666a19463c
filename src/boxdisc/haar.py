"""Averaging over the two unknown boxes by three interchangeable engines.

Each wire of a register carries one of three labels: "U" and "V" name the two
independent unknown single-qubit boxes, "I" marks an idle wire. Averaging
means integrating W X W+ over both boxes, where W places the same unitary on
every wire sharing a label.

Three engines compute that integral:

* ``design``: exact summation over the 24-element single-qubit Clifford
  group. The group is a unitary 3-design and every average needed here is a
  balanced conjugation of degree at most three per box, so the finite sum
  equals the integral up to rounding. Patterns therefore cap each label at
  three wires.
* ``quadrature``: deterministic product rule over the explicit angle
  parameterization of the group: the periodic trapezoid rule in both
  rotation angles and Gauss-Legendre in the cosine of the polar angle, with
  the invariant-measure weight folded into the node weights. It is exact up
  to rounding from 2 * DESIGN_COPY_LIMIT + 1 nodes per angle on, and shares
  nothing with the design.
* ``monte_carlo``: seeded unit-quaternion sampling, with a standard-error
  bound reported alongside the estimate.

The two boxes are independent, so the exact engines average one label at a
time. For k wires sharing a label the exact average is one fixed channel, the
k-copy twirl T_k = sum_m w_m U_m^{(x)k} (x) conj(U_m)^{(x)k}, which depends
on the rule and on k only. Each T_k is built once per process from the 24
group elements or nodes**3 grid points as a weighted Gram matrix, one matrix
product per chunk of elements, then kept as a 4**k x 4**k matrix (at most
64 x 64); every later average with the same rule applies it as one matrix
product on the operator with the label's wires moved to the front.

The Monte Carlo engine draws joint samples of both boxes from one kernel,
shared with the per-sample circuit simulation of the scenarios: draw_boxes
yields seeded chunks of gate stacks, and apply_boxes puts them on a batch of
kets or operator columns one wire at a time, so the full 2**n x 2**n W is
never built. The batch has shape (d, r, m), samples last: every product then
runs over contiguous rows of m samples instead of over the r = 1 entries of
a ket. An operator average W x W+ is two such passes, W x and then W (W x)+.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import states

#: Largest number of wires a single label may occupy while the Clifford sum
#: is still exact.
DESIGN_COPY_LIMIT = 3

#: Fewest quadrature nodes per angle for which the rule is exact on up to
#: DESIGN_COPY_LIMIT copies (see _quadrature_elements).
MIN_NODES = 2 * DESIGN_COPY_LIMIT + 1

#: Default node count per angle for the quadrature engine. Any count from
#: MIN_NODES on is exact up to rounding; the 24**3 grid points of the default
#: cost more only in the one-time build of each channel.
DEFAULT_NODES = 24

_METHODS = ("design", "quadrature", "monte_carlo")

#: Most group elements or samples held at once: bounds the memory of the
#: channel build and of each Monte Carlo draw.
_CHUNK = 4096


@dataclass(frozen=True)
class BoxPattern:
    """Per-wire box assignment, e.g. ("U", "V", "U", "I").

    Labels "U" and "V" are the two unknown boxes, "I" leaves the wire alone.
    At most DESIGN_COPY_LIMIT wires may share a box label so that the design
    engine stays exact.
    """

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("a pattern needs at least one wire")
        bad = sorted(set(labels) - {"U", "V", "I"})
        if bad:
            raise ValueError(f"unknown wire labels {bad}; use 'U', 'V' or 'I'")
        for box in ("U", "V"):
            if labels.count(box) > DESIGN_COPY_LIMIT:
                raise ValueError(
                    f"label {box!r} appears {labels.count(box)} times; the exact "
                    f"design sum only covers up to {DESIGN_COPY_LIMIT}"
                )

    @classmethod
    def from_string(cls, text: str) -> "BoxPattern":
        return cls(tuple(text.upper()))

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "".join(self.labels)

    def wires(self, label: str) -> tuple:
        return tuple(i for i, l in enumerate(self.labels) if l == label)


def as_pattern(pattern) -> BoxPattern:
    if isinstance(pattern, BoxPattern):
        return pattern
    if isinstance(pattern, str):
        return BoxPattern.from_string(pattern)
    return BoxPattern(tuple(pattern))


@dataclass(frozen=True)
class AverageResult:
    """Averaged state plus provenance of the engine that produced it.

    samples holds the number of summation terms (group order, grid size, or
    sample count); stderr_bound is 0 for the exact engines and the largest
    entrywise standard error for Monte Carlo.
    """

    rho: np.ndarray
    method: str
    samples: int
    stderr_bound: float


def _su2_rotation(theta, axis) -> np.ndarray:
    """exp(-i theta/2 n.sigma) for rotation angles and unit axes n, vectorised.

    That rotation is the unit quaternion (cos theta/2, -sin theta/2 n).
    ``axis`` holds the three axis components, each broadcastable against
    ``theta``; the result has shape theta.shape + (2, 2).
    """
    half = theta / 2
    parts = np.broadcast_arrays(np.cos(half), *(-np.sin(half) * a for a in axis))
    return _quaternions_to_su2(np.stack(parts, axis=-1))


def _quaternions_to_su2(q: np.ndarray) -> np.ndarray:
    """Map unit quaternions, shape (..., 4), to 2x2 unitaries, shape (..., 2, 2)."""
    a, b, c, d = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    u = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = a + 1j * d
    u[..., 0, 1] = c + 1j * b
    u[..., 1, 0] = -c + 1j * b
    u[..., 1, 1] = a - 1j * d
    return u


@functools.cache
def clifford_group():
    """The 24 single-qubit Clifford elements, one per global-phase class.

    Generated by closing {H, S} under multiplication. Deduplication happens
    on a phase-canonicalized rounded key, but the stored matrices are the
    raw products: rounding the group elements themselves would inject ~1e-9
    errors into every average built from them. Built once per process and
    returned as the same tuple after.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)

    def key(u):
        flat = u.reshape(-1)
        # Every element has an entry of magnitude 1 or 1/sqrt(2); the first
        # one above 0.5 is a phase reference shared by all phase-equivalents.
        pivot = flat[int(np.argmax(np.abs(flat) > 0.5))]
        canon = np.round(u * (abs(pivot) / pivot), 9) + 0.0  # +0.0 kills -0.0
        return canon.tobytes()

    eye = np.eye(2, dtype=complex)
    elements = {key(eye): eye}
    frontier = [eye]
    while frontier:
        fresh = []
        for u in frontier:
            for g in (h, s):
                w = g @ u
                k = key(w)
                if k not in elements:
                    elements[k] = w
                    fresh.append(w)
        frontier = fresh
        if len(elements) > 24:
            raise RuntimeError(f"group closure grew past 24 elements ({len(elements)})")
    if len(elements) != 24:
        raise RuntimeError(f"group closure stopped at {len(elements)} elements, expected 24")
    return tuple(elements.values())


@functools.cache
def _quadrature_elements(nodes: int):
    """Product rule over the angle box, weights including the measure.

    theta and phi take the periodic trapezoid rule on ``nodes`` points in
    [0, 2*pi); x = cos(mu) takes ``nodes``-point Gauss-Legendre, which absorbs
    the sin(mu) of the measure sin^2(theta/2) sin(mu) / (4 pi^2). Node
    weights are therefore sin^2(theta/2) w_x / nodes**2.

    Every entry of a k-copy channel, times sin^2(theta/2), is a trigonometric
    polynomial of frequency at most k + 1 in theta and 2k in phi; summed over
    phi, it is a polynomial of degree at most 2k in cos(mu). The trapezoid
    rule is exact below frequency ``nodes`` and Gauss-Legendre up to degree
    2 * nodes - 1, so the rule is exact for nodes >= 2k + 1, i.e. MIN_NODES.
    At 2 * DESIGN_COPY_LIMIT nodes phi aliases and three-copy averages are
    off by the order of 1e-2. The weights integrate the constant exactly, so they sum to
    1 up to rounding and need no renormalization.

    Returns (stack of unitaries, weights), built once per node count and
    shared read-only by every caller.
    """
    x, w_x = np.polynomial.legendre.leggauss(nodes)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    tg, pg, xg = np.meshgrid(angles, angles, x, indexing="ij")
    wg = (np.sin(tg / 2) ** 2 * w_x / nodes**2).reshape(-1)
    tg, pg, xg = tg.reshape(-1), pg.reshape(-1), xg.reshape(-1)

    sin_mu = np.sqrt(1.0 - xg**2)
    us = _su2_rotation(tg, (sin_mu * np.cos(pg), sin_mu * np.sin(pg), xg))
    us.flags.writeable = False
    wg.flags.writeable = False
    return us, wg


def _kron_stack(us: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of each matrix in a stack (m, 2, 2)."""
    out = np.ones((us.shape[0], 1, 1), dtype=complex)
    dim = 1
    for _ in range(k):
        out = np.einsum("mab,mcd->macbd", out, us).reshape(
            us.shape[0], dim * 2, dim * 2
        )
        dim *= 2
    return out


@functools.cache
def _twirl_channel(method: str, nodes: int | None, k: int) -> np.ndarray:
    """Read-only k-copy twirl channel of an exact engine, a 4**k x 4**k matrix.

    T[(c, d), (a, b)] = sum_m w_m U_m^{(x)k}[c, a] conj(U_m^{(x)k})[d, b], so
    the average of |a><b| on the k wires is sum_cd T[(c, d), (a, b)] |c><d|.
    The sum is the weighted Gram matrix G = A^T diag(w) conj(A) of the matrix
    A whose rows are the flattened U_m^{(x)k}, G[(c, a), (d, b)] = T[(c, d),
    (a, b)]; it is accumulated with one matrix product per _CHUNK elements,
    so the full stack of k-fold Kronecker powers is never held. Built once
    per (method, nodes, k); the design rule takes nodes None, and the three
    channels of one node count share one cached grid.
    """
    if method == "design":
        us = np.stack(clifford_group())
        weights = np.full(len(us), 1.0 / len(us))
    else:
        us, weights = _quadrature_elements(nodes)
    da = 2**k
    gram = np.zeros((da * da, da * da), dtype=complex)
    for lo in range(0, len(us), _CHUNK):
        a = _kron_stack(us[lo : lo + _CHUNK], k).reshape(-1, da * da)
        gram += a.T @ (weights[lo : lo + _CHUNK, None] * a.conj())
    t = gram.reshape(da, da, da, da).transpose(0, 2, 1, 3).reshape(da * da, da * da)
    t.flags.writeable = False
    return t


def _twirl_one_label(x: np.ndarray, wires, n: int, method: str, nodes: int | None):
    """Average W x W+ where W puts the same element on every wire in ``wires``.

    Moves the label's row and column qubits to the front, so the operator is
    a 4**k x 4**(n-k) matrix, and applies the k-copy channel to it with one
    matrix product.
    """
    k = len(wires)
    if k == 0:
        return x
    t = _twirl_channel(method, nodes, k)
    rest = tuple(w for w in range(n) if w not in wires)
    axes = tuple(wires) + tuple(w + n for w in wires) + rest + tuple(w + n for w in rest)
    xt = x.reshape((2,) * (2 * n)).transpose(axes).reshape(4**k, -1)
    y = (t @ xt).reshape((2,) * (2 * n)).transpose(np.argsort(axes))
    return y.reshape(2**n, 2**n)


def draw_boxes(samples: int, seed, labels):
    """Seeded Haar-random gates for the boxes named in ``labels``, in chunks.

    ``default_rng(seed)`` (seed an int or a SeedSequence) fills one block of
    samples x 4 normals for "U" if it occurs in ``labels``, then one for "V";
    each normalized row is a unit quaternion. Chunking the blocks into at most
    _CHUNK samples bounds memory without changing the stream.

    Yields (m, gates) per chunk: gates maps each drawn label to an (m, 2, 2)
    stack of unitaries. m is yielded on its own because an all-idle pattern
    draws nothing.
    """
    rng = np.random.default_rng(seed)
    blocks = {box: rng.normal(size=(samples, 4)) for box in ("U", "V") if box in labels}
    for lo in range(0, samples, _CHUNK):
        hi = min(lo + _CHUNK, samples)
        gates = {}
        for box, q in blocks.items():
            q = q[lo:hi]
            gates[box] = _quaternions_to_su2(q / np.linalg.norm(q, axis=1, keepdims=True))
        yield hi - lo, gates


def apply_boxes(batch: np.ndarray, pattern, gates) -> np.ndarray:
    """W_s batch[..., s] for a samples-last batch of shape (d, r, m).

    W_s puts gates[label][s] on every wire carrying that label and leaves idle
    wires alone; wire 0 is the leading qubit of the d = 2**n rows. The batch
    may be a broadcast view. Samples go last so that every product below runs
    over contiguous rows of m samples: with samples first, the inner loops
    would be only r long (1 for kets). Each wire costs O(m d r), and W itself
    is never formed.
    """
    d, r, m = batch.shape
    out = batch
    for wire, label in enumerate(as_pattern(pattern).labels):
        if label == "I":
            continue
        g = gates[label].transpose(1, 2, 0)  # (out bit, in bit, m)
        o = out.reshape(2**wire, 2, -1, m)  # (wires before, in bit, after * r, m)
        new = np.empty(o.shape, dtype=complex)
        for bit in (0, 1):
            np.multiply(g[bit, 0], o[:, 0], out=new[:, bit])
            new[:, bit] += g[bit, 1] * o[:, 1]
        out = new
    return out.reshape(d, r, m)


def _mc_operator_average(x, pattern, samples, seed):
    """Monte Carlo average of W x W+ with streaming moment accumulators.

    Two passes of apply_boxes give W (W x)+ = (W x W+)+ per sample, so the
    sums are conjugate-transposed once at the end. Deviations from x are
    accumulated: an all-idle pattern then returns x with stderr 0.
    """
    dim = x.shape[0]
    x_h = x.conj().T
    total = np.zeros((dim, dim), dtype=complex)
    total_sq = np.zeros((dim, dim), dtype=float)
    for m, gates in draw_boxes(samples, seed, pattern.labels):
        wx = apply_boxes(np.broadcast_to(x[..., None], (dim, dim, m)), pattern, gates)
        y = apply_boxes(wx.conj().transpose(1, 0, 2), pattern, gates) - x_h[..., None]
        total += y.sum(axis=-1)
        total_sq += (np.abs(y) ** 2).sum(axis=-1)
    shift = total.conj().T / samples
    var = np.maximum(total_sq.T / samples - np.abs(shift) ** 2, 0.0)
    stderr = float(np.max(np.sqrt(var / samples)))
    return x + shift, stderr


def twirl_operator(
    x: np.ndarray,
    pattern,
    method: str = "design",
    *,
    nodes: int = DEFAULT_NODES,
    samples: int = 0,
    seed=0,
):
    """Average W x W+ over both boxes for an arbitrary square operator.

    The exact engines average one label after the other; the boxes are
    independent, so the order is immaterial. Monte Carlo draws joint samples
    instead, seeded by ``seed`` (an int or a SeedSequence).

    Returns
    -------
    (ndarray, int, float)
        The averaged operator, the number of summation terms per label (or
        samples), and an entrywise standard-error bound (0 for exact engines).
    """
    pattern = as_pattern(pattern)
    n = len(pattern)
    x = np.asarray(x, dtype=complex)
    if x.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {x.shape} does not match pattern {pattern}")
    if method in ("design", "quadrature"):
        if method == "quadrature" and nodes < MIN_NODES:
            raise ValueError(
                f"quadrature needs at least {MIN_NODES} nodes per angle, got {nodes}"
            )
        rule_nodes = nodes if method == "quadrature" else None
        for label in ("U", "V"):
            x = _twirl_one_label(x, pattern.wires(label), n, method, rule_nodes)
        terms = len(clifford_group()) if method == "design" else nodes**3
        return x, terms, 0.0
    if method == "monte_carlo":
        if samples <= 0:
            raise ValueError("monte_carlo needs samples > 0")
        mean, stderr = _mc_operator_average(x, pattern, samples, seed)
        return mean, samples, stderr
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def average_pattern(
    psi: np.ndarray,
    pattern,
    method: str = "design",
    *,
    nodes: int = DEFAULT_NODES,
    samples: int = 0,
    seed=0,
) -> AverageResult:
    """Average |psi><psi| under a box pattern with the chosen engine.

    Every engine forms a convex combination of pure-state projectors (the
    quadrature weights are nonnegative), so the output is validated against
    the full density-matrix contract before it is returned.
    """
    pattern = as_pattern(pattern)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2 ** len(pattern),):
        raise ValueError(f"state length {psi.shape} does not match pattern {pattern}")
    states.assert_normalized(psi)
    rho, count, stderr = twirl_operator(
        states.density(psi),
        pattern,
        method,
        nodes=nodes,
        samples=samples,
        seed=seed,
    )
    states.check_density(rho)
    return AverageResult(rho, method, count, stderr)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one averaging identity under one engine."""

    identity: str
    method: str
    deviation: float
    tolerance: float
    passed: bool


def twirl_identity_suite(
    methods=_METHODS,
    *,
    nodes: int = DEFAULT_NODES,
    samples: int = 100_000,
    seed: int = 424242,
):
    """Check the six closed-form single- and two-wire averages per engine.

    One box acting on one wire sends |0><0| and |1><1| to I/2 and kills the
    off-diagonal |0><1|; the same box on both wires sends |00><00| to a third
    of the symmetric projector and kills both |00><11| and the
    singlet-to-|00> coherence. Both exact engines are held to 1e-12; Monte
    Carlo to four standard errors of its own estimate, with one independent
    stream per identity spawned from ``seed``.
    """
    eye2 = np.eye(2, dtype=complex) / 2.0
    p_sym, _ = states.sym_antisym_projectors((0, 1), 2)
    zeros2 = np.zeros((2, 2), dtype=complex)
    zeros4 = np.zeros((4, 4), dtype=complex)
    cases = [
        ("|0><0| to I/2", states.density(states.ket("0")), "U", eye2),
        ("|1><1| to I/2", states.density(states.ket("1")), "U", eye2),
        (
            "|0><1| to 0",
            np.outer(states.ket("0"), states.ket("1").conj()),
            "U",
            zeros2,
        ),
        (
            "|00><00| to P_sym/3",
            states.density(states.ket("00")),
            "UU",
            p_sym / 3.0,
        ),
        (
            "|00><11| to 0",
            np.outer(states.ket("00"), states.ket("11").conj()),
            "UU",
            zeros4,
        ),
        (
            "singlet-to-|00| coherence to 0",
            np.outer(states.bell("psi-"), states.ket("00").conj()),
            "UU",
            zeros4,
        ),
    ]
    case_seeds = np.random.SeedSequence(seed).spawn(len(cases))
    checks = []
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        for (name, x, pattern, expected), case_seed in zip(cases, case_seeds):
            avg, _, stderr = twirl_operator(
                x,
                pattern,
                method,
                nodes=nodes,
                samples=samples if method == "monte_carlo" else 0,
                seed=case_seed,
            )
            deviation = float(np.max(np.abs(avg - expected)))
            tol = 4.0 * stderr if method == "monte_carlo" else 1e-12
            checks.append(IdentityCheck(name, method, deviation, tol, deviation <= tol))
    return checks
