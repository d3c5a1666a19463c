"""Averaging over the two unknown boxes by three interchangeable engines.

Each wire of a register carries one of three labels: "U" and "V" name the two
independent unknown single-qubit boxes, "I" marks an idle wire. Averaging
means integrating W X W+ over both boxes, where W places the same unitary on
every wire sharing a label.

Three engines compute that integral:

* ``design``: exact summation over the 24-element single-qubit Clifford
  group, built from its unit quaternions by _quaternions_to_su2, the map
  every unitary of all three engines goes through. The group is a unitary
  3-design and every average needed here is a balanced conjugation of
  degree at most three per box, so the finite sum equals the integral up to
  rounding. Patterns therefore cap each label at three wires.
* ``quadrature``: deterministic product rule over the explicit angle
  parameterization of the group: the periodic trapezoid rule in both
  rotation angles and Gauss-Legendre in the cosine of the polar angle, with
  the invariant-measure weight folded into the node weights. It is exact up
  to rounding from 2 * DESIGN_COPY_LIMIT + 1 nodes per angle on, and shares
  only the quaternion map below with the design.
* ``monte_carlo``: seeded unit-quaternion sampling, with a standard-error
  bound reported alongside the estimate.

The two boxes are independent, so the exact engines average one label at a
time. For k wires sharing a label the exact average is one fixed channel, the
k-copy twirl T_k = sum_m w_m U_m^{(x)k} (x) conj(U_m)^{(x)k}, which depends
on the rule and on k only. Each T_k is built once per process from the 24
group elements, or from the nodes**2 grid points at axis azimuth 0 with the
azimuth sum of the nodes**3-point rule done in closed form, as a weighted
Gram matrix in one matrix product, then kept as a 4**k x 4**k matrix (at
most 64 x 64); every later average with the same rule applies it as one
matrix product on the operator with the label's wires moved to the front.

The Monte Carlo engine draws joint samples of both boxes from one kernel,
shared with the per-sample circuit simulation of the scenarios: draw_boxes
draws seeded chunks of gate stacks, at most _CHUNK samples at a time for any
sample count, and apply_boxes pushes one ket through them one wire at a
time into a (d, m) array, samples last, so every product runs over
contiguous rows of m samples and the full 2**n x 2**n W is never built. A
scenario run draws each chunk once and scores every scenario of the run on
it. The one Monte Carlo operator average takes a rank-one x = |a><b| as its
two kets and forms W x W+ as (W a)(W b)+: average_pattern passes psi twice,
one ket per sample, and twirl_identity_suite the two kets of each |a><b|.
twirl_operator is the exact twirl only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import states

#: Largest number of wires a single label may occupy while the Clifford sum
#: is still exact.
DESIGN_COPY_LIMIT = 3

#: Fewest quadrature nodes per angle for which the rule is exact on up to
#: DESIGN_COPY_LIMIT copies (see _quadrature_elements), and the default node
#: count: more nodes add no exactness, only build time.
MIN_NODES = 2 * DESIGN_COPY_LIMIT + 1

#: Most quadrature nodes per angle. The rule has nodes**3 points, of which the
#: channel build holds and sums the nodes**2 at axis azimuth 0: at 64 nodes a
#: cold `--all --method quadrature` peaks near 47 MB.
MAX_NODES = 64

_METHODS = ("design", "quadrature", "monte_carlo")

#: Most samples held at once: bounds the memory of each Monte Carlo draw.
_CHUNK = 4096


@dataclass(frozen=True)
class BoxPattern:
    """Per-wire box assignment, e.g. ("U", "V", "U", "I").

    Labels "U" and "V" are the two unknown boxes, "I" leaves the wire alone;
    a string such as "uvui" is read in upper case, one label per character.
    At most DESIGN_COPY_LIMIT wires may share a box label so that the design
    engine stays exact.
    """

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels.upper() if isinstance(self.labels, str) else self.labels)
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

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "".join(self.labels)

    def wires(self, label: str) -> tuple:
        return tuple(i for i, l in enumerate(self.labels) if l == label)


def as_pattern(pattern) -> BoxPattern:
    return pattern if isinstance(pattern, BoxPattern) else BoxPattern(pattern)


@dataclass(frozen=True, eq=False)
class AverageResult:
    """Averaged state plus provenance of the engine that produced it.

    samples holds the size of the rule (group order, the nodes**3 points
    of the quadrature rule, or sample count); stderr_bound is 0 for the
    exact engines and the largest entrywise standard error for Monte
    Carlo. Equality is identity.
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
def clifford_group() -> np.ndarray:
    """The 24 single-qubit Clifford elements, one per global-phase class.

    They are the binary octahedral group up to sign, mapped through
    _quaternions_to_su2: 1, i, j and k; the eight (1 +- i +- j +- k)/2, which
    with the first four make the binary tetrahedral group, a 2-design only;
    and the twelve (e_a +- e_b)/sqrt(2) of two distinct units, which complete
    the 3-design. Built once per process and returned after as the same
    read-only (24, 2, 2) stack.
    """
    units = np.eye(4)
    corners = [(1.0, *signs) for signs in itertools.product((1.0, -1.0), repeat=3)]
    edges = [a + s * b for a, b in itertools.combinations(units, 2) for s in (1, -1)]
    # np.sqrt(0.5) is 1/sqrt(2) correctly rounded; 1 / np.sqrt(2.0) is one ulp low.
    q = np.vstack([units, np.array(corners) / 2, np.array(edges) * np.sqrt(0.5)])
    us = _quaternions_to_su2(q)
    us.flags.writeable = False
    return us


@functools.cache
def _quadrature_elements(nodes: int):
    """The phi = 0 slice of the product rule, weights including the measure.

    The rule: theta and the axis azimuth phi take the periodic trapezoid rule
    on ``nodes`` points in [0, 2*pi); x = cos(mu) takes ``nodes``-point
    Gauss-Legendre, which absorbs the sin(mu) of the measure sin^2(theta/2)
    sin(mu) / (4 pi^2). Node weights are therefore sin^2(theta/2) w_x /
    nodes**2 over nodes**3 points.

    Only the nodes**2 (theta, x) points at phi = 0 are returned, with the
    axis (sqrt(1 - x^2), 0, x), each weighted sin^2(theta/2) w_x / nodes: the
    weight of one full-grid point times the nodes points of the phi sum,
    which _twirl_channel evaluates in closed form.

    Every entry of a k-copy channel, times sin^2(theta/2), is a trigonometric
    polynomial of frequency at most k + 1 in theta and 2k in phi; summed over
    phi, it is a polynomial of degree at most 2k in cos(mu). The trapezoid
    rule is exact below frequency ``nodes`` and Gauss-Legendre up to degree
    2 * nodes - 1, so the rule is exact for nodes >= 2k + 1, i.e. MIN_NODES.
    At 2 * DESIGN_COPY_LIMIT nodes phi aliases and three-copy averages are
    off by the order of 1e-2. The weights integrate the constant exactly, so
    they sum to 1 up to rounding and need no renormalization.

    Returns (stack of unitaries, weights), built once per node count and
    shared read-only by every caller.
    """
    x, w_x = np.polynomial.legendre.leggauss(nodes)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    tg, xg = np.meshgrid(angles, x, indexing="ij")
    wg = (np.sin(tg / 2) ** 2 * w_x / nodes).reshape(-1)
    tg, xg = tg.reshape(-1), xg.reshape(-1)

    us = _su2_rotation(tg, (np.sqrt(1.0 - xg**2), 0.0, xg))
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
    (a, b)]; it is one matrix product, as A has at most MAX_NODES**2 = 4096
    rows of 4**k <= 64 entries. Built once per (method, nodes, k); the
    design rule takes nodes None, and the three channels of one node count
    share one cached grid.

    The quadrature sum over the axis azimuth phi is done in closed form.
    Turning the axis by phi about z conjugates U by Z = exp(-i phi sigma_z /
    2), which multiplies G[(c, a), (d, b)] by exp(i phi j) with j = |c| -
    |a| - |d| + |b|, |.| the number of 1 bits of an index. On the nodes
    trapezoid points phi = 2 pi p / nodes that factor sums to nodes if j = 0
    mod nodes and to 0 otherwise, so G is accumulated over the phi = 0 slice
    of _quadrature_elements and multiplied by that 0/1 mask. The test stays
    mod nodes, not j = 0, so a rule below MIN_NODES aliases exactly as the
    full nodes**3 grid does.
    """
    if method == "design":
        us = clifford_group()
        weights = np.full(len(us), 1.0 / len(us))
    else:
        us, weights = _quadrature_elements(nodes)
    da = 2**k
    a = _kron_stack(us, k).reshape(-1, da * da)
    gram = a.T @ (weights[:, None] * a.conj())
    if method == "quadrature":
        ones = np.array([bin(i).count("1") for i in range(da)])
        pair = (ones[:, None] - ones[None, :]).reshape(-1)  # |c| - |a| per (c, a)
        gram *= (pair[:, None] - pair[None, :]) % nodes == 0
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
    axes, inverse = _axis_order(tuple(wires), n)
    xt = x.reshape((2,) * (2 * n)).transpose(axes).reshape(4**k, -1)
    y = (t @ xt).reshape((2,) * (2 * n)).transpose(inverse)
    return y.reshape(2**n, 2**n)


@functools.cache
def _axis_order(wires: tuple, n: int) -> tuple:
    """(axes, inverse): the transpose that moves the row and column qubits of
    ``wires`` to the front of an n-wire operator, and the one that undoes it.
    """
    rest = tuple(w for w in range(n) if w not in wires)
    axes = wires + tuple(w + n for w in wires) + rest + tuple(w + n for w in rest)
    return axes, tuple(int(i) for i in np.argsort(axes))


def draw_boxes(samples: int, seed, labels):
    """Seeded Haar-random gates for the boxes named in ``labels``, in chunks.

    ``default_rng(seed)`` (seed an int or a SeedSequence) fills one block of
    samples x 4 normals for "U" if it occurs in ``labels``, then one for "V";
    each normalized row is a unit quaternion. Both blocks are drawn at most
    _CHUNK samples at a time, so memory stays bounded for any sample count
    without changing the stream: when both boxes are drawn, V reads its block
    from a second generator on the same seed that first discards the U block,
    chunk by chunk.

    Yields (m, gates) per chunk: gates maps each drawn label to an (m, 2, 2)
    stack of unitaries. m is yielded on its own because an all-idle pattern
    draws nothing.
    """
    sizes = [min(_CHUNK, samples - lo) for lo in range(0, samples, _CHUNK)]
    rng = np.random.default_rng(seed)
    rngs = {box: rng for box in ("U", "V") if box in labels}
    if len(rngs) == 2:
        rngs["V"] = np.random.default_rng(seed)
        for m in sizes:
            rngs["V"].normal(size=(m, 4))
    for m in sizes:
        gates = {}
        for box, source in rngs.items():
            q = source.normal(size=(m, 4))
            gates[box] = _quaternions_to_su2(q / np.linalg.norm(q, axis=1, keepdims=True))
        yield m, gates


def apply_boxes(psi: np.ndarray, pattern, gates, m: int) -> np.ndarray:
    """The C-contiguous (d, m) array of W_s psi, one column per sample s.

    W_s puts gates[label][s] on every wire carrying that label and leaves idle
    wires alone; wire 0 is the leading qubit of the d = 2**n entries of psi,
    which may be any view. m is the chunk size draw_boxes yields. Samples go
    last, so every product below runs over contiguous rows of m samples.
    Each wire costs O(m d), and W itself is never formed.
    """
    d = len(psi)
    out = np.broadcast_to(psi[:, None], (d, m))
    for wire, label in enumerate(as_pattern(pattern).labels):
        if label == "I":
            continue
        g = gates[label].transpose(1, 2, 0)  # (out bit, in bit, m)
        o = out.reshape(2**wire, 2, -1, m)  # (wires before, in bit, wires after, m)
        new = np.empty(o.shape, dtype=complex)
        for bit in (0, 1):
            np.multiply(g[bit, 0], o[:, 0], out=new[:, bit])
            new[:, bit] += g[bit, 1] * o[:, 1]
        out = new
    # Only an all-idle pattern leaves the read-only broadcast view of psi.
    return out.reshape(d, m) if out.flags.writeable else out.copy()


def _mc_operator_average(a, b, pattern, samples, seed):
    """Monte Carlo average of W x W+ for x = |a><b|, two kets of length d.

    Per chunk apply_boxes pushes a through the boxes, and b unless b is a,
    so a density |psi><psi| costs one ket per sample. Each sample's W x W+
    is then the outer product (W a)(W b)+. Deviations from x are accumulated
    in streaming moment sums: an all-idle pattern then returns x with
    stderr 0.
    """
    if samples < 2:
        raise ValueError("monte_carlo needs samples >= 2: one sample has no error bar")
    x = np.outer(a, b.conj())
    total = np.zeros(x.shape, dtype=complex)
    total_sq = np.zeros(x.shape, dtype=float)
    for m, gates in draw_boxes(samples, seed, pattern.labels):
        wa = apply_boxes(a, pattern, gates, m)
        wb = wa if b is a else apply_boxes(b, pattern, gates, m)
        wb = wb.conj()
        y = wa[:, None] * wb[None, :]
        y -= x[..., None]
        total += y.sum(axis=-1)
        # Real and imaginary parts side by side: sum |y|**2 over the samples.
        parts = y.view(float)
        total_sq += np.einsum("ijm,ijm->ij", parts, parts)
    shift = total / samples
    var = np.maximum(total_sq / samples - np.abs(shift) ** 2, 0.0)
    stderr = float(np.max(np.sqrt(var / samples)))
    return x + shift, stderr


def twirl_operator(x: np.ndarray, pattern, method: str = "design", *, nodes: int = MIN_NODES):
    """Exact average of W x W+ over both boxes for an arbitrary square operator.

    ``method`` is "design" or "quadrature"; anything else raises ValueError.
    The engine averages one label after the other; the boxes are
    independent, so the order is immaterial. A Monte Carlo average of a
    rank-one operator |a><b| goes through _mc_operator_average with its two
    kets. Returns the averaged operator and the size of the rule applied per
    label (24 or nodes**3).
    """
    pattern = as_pattern(pattern)
    n = len(pattern)
    x = np.asarray(x, dtype=complex)
    if x.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {x.shape} does not match pattern {pattern}")
    if method not in ("design", "quadrature"):
        raise ValueError(f"unknown exact method {method!r}; expected 'design' or 'quadrature'")
    if method == "quadrature" and not MIN_NODES <= nodes <= MAX_NODES:
        raise ValueError(
            f"quadrature takes {MIN_NODES} to {MAX_NODES} nodes per angle, got {nodes}"
        )
    rule_nodes = nodes if method == "quadrature" else None
    for label in ("U", "V"):
        x = _twirl_one_label(x, pattern.wires(label), n, method, rule_nodes)
    terms = len(clifford_group()) if method == "design" else nodes**3
    return x, terms


def average_pattern(
    psi: np.ndarray,
    pattern,
    method: str = "design",
    *,
    nodes: int = MIN_NODES,
    samples: int = 0,
    seed=0,
) -> AverageResult:
    """Average |psi><psi| under a box pattern with the chosen engine.

    Monte Carlo pushes psi itself through the boxes, one ket per sample.
    Every engine forms a convex combination of pure-state projectors (the
    quadrature weights are nonnegative), so the output is validated against
    the full density-matrix contract before it is returned.
    """
    pattern = as_pattern(pattern)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2 ** len(pattern),):
        raise ValueError(f"state length {psi.shape} does not match pattern {pattern}")
    states.assert_normalized(psi)
    if method == "monte_carlo":
        rho, stderr = _mc_operator_average(psi, psi, pattern, samples, seed)
        count = samples
    else:
        rho, count = twirl_operator(states.density(psi), pattern, method, nodes=nodes)
        stderr = 0.0
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


def twirl_identity_suite(methods=_METHODS, *, samples: int = 100_000, seed: int = 424242):
    """Check the six closed-form single- and two-wire averages per engine.

    One box acting on one wire sends |0><0| and |1><1| to I/2 and kills the
    off-diagonal |0><1|; the same box on both wires sends |00><00| to a third
    of the symmetric projector and kills both |00><11| and the
    singlet-to-|00> coherence. Each case is the ket pair (a, b) of its
    operator |a><b|. Both exact engines twirl the operator, quadrature on
    MIN_NODES nodes, and are held to 1e-12; Monte Carlo pushes a and b
    through the boxes as two kets, even when they are equal, and is held to
    four standard errors of its own estimate, with one independent stream
    per identity spawned from ``seed``.
    """
    eye2 = np.eye(2, dtype=complex) / 2.0
    p_sym, _ = states.sym_antisym_projectors((0, 1), 2)
    zeros2 = np.zeros((2, 2), dtype=complex)
    zeros4 = np.zeros((4, 4), dtype=complex)
    ket = states.ket
    cases = [
        ("|0><0| to I/2", ket("0"), ket("0"), "U", eye2),
        ("|1><1| to I/2", ket("1"), ket("1"), "U", eye2),
        ("|0><1| to 0", ket("0"), ket("1"), "U", zeros2),
        ("|00><00| to P_sym/3", ket("00"), ket("00"), "UU", p_sym / 3.0),
        ("|00><11| to 0", ket("00"), ket("11"), "UU", zeros4),
        ("singlet-to-|00| coherence to 0", states.bell("psi-"), ket("00"), "UU", zeros4),
    ]
    case_seeds = np.random.SeedSequence(seed).spawn(len(cases))
    checks = []
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        for (name, a, b, pattern, expected), case_seed in zip(cases, case_seeds):
            if method == "monte_carlo":
                avg, stderr = _mc_operator_average(a, b, as_pattern(pattern), samples, case_seed)
                tol = 4.0 * stderr
            else:
                avg, _ = twirl_operator(np.outer(a, b.conj()), pattern, method)
                tol = 1e-12
            deviation = float(np.max(np.abs(avg - expected)))
            checks.append(IdentityCheck(name, method, deviation, tol, deviation <= tol))
    return checks
