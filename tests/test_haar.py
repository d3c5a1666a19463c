import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdisc import haar, linalg, scenarios, states
from boxdisc.haar import BoxPattern, average_pattern, twirl_operator

seeds = st.integers(0, 2**32 - 1)


def _su2_from_angles(theta, phi, mu):
    axis = (np.sin(mu) * np.cos(phi), np.sin(mu) * np.sin(phi), np.cos(mu))
    return haar._su2_rotation(theta, axis)


class TestSu2Params:
    """The (theta, phi, mu) angle parameterization behind the quadrature grid."""

    def test_zero_rotation_is_identity(self):
        u = _su2_from_angles(0.0, 1.0, 1.0)
        assert np.max(np.abs(u - np.eye(2))) <= 1e-12

    def test_pi_rotation_about_z(self):
        u = _su2_from_angles(np.pi, 0.0, 0.0)
        assert np.max(np.abs(u - np.diag([-1j, 1j]))) <= 1e-12

    @given(
        st.floats(0, 2 * np.pi),
        st.floats(0, 2 * np.pi),
        st.floats(0, np.pi),
    )
    def test_always_special_unitary(self, theta, phi, mu):
        u = _su2_from_angles(theta, phi, mu)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


class TestDrawBoxes:
    @given(seeds)
    def test_special_unitary(self, seed):
        ((_, gates),) = haar.draw_boxes(8, seed, "UV")
        for us in gates.values():
            gram = np.einsum("mji,mjk->mik", us.conj(), us)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
            assert np.max(np.abs(np.linalg.det(us) - 1.0)) <= 1e-12

    def test_seeded_stream_reproducible(self):
        ((_, a),) = haar.draw_boxes(5, 123, "UV")
        ((_, b),) = haar.draw_boxes(5, 123, "UV")
        assert all(np.array_equal(a[box], b[box]) for box in ("U", "V"))

    def test_empirical_single_wire_moments(self):
        # 1e5 samples: E[U|0><0|U+] = I/2 and E[U|0><1|U+] = 0, both within
        # four standard errors of the empirical mean.
        us = np.concatenate([g["U"] for _, g in haar.draw_boxes(100_000, 20250815, "U")])
        col0 = us[:, :, 0]
        for target, samples in (
            (np.eye(2) / 2, np.einsum("mi,mj->mij", col0, col0.conj())),
            (np.zeros((2, 2)), np.einsum("mi,mj->mij", col0, us[:, :, 1].conj())),
        ):
            mean = samples.mean(axis=0)
            stderr = np.sqrt(
                (np.abs(samples - mean) ** 2).mean(axis=0) / samples.shape[0]
            )
            assert np.all(np.abs(mean - target) <= 4.0 * stderr + 1e-12)


class TestCliffordGroup:
    def test_cardinality(self):
        assert len(haar.clifford_group()) == 24

    @staticmethod
    def _frame_potential(us, k):
        """(1/|G|^2) sum_{m,n} |tr(U_m+ U_n)|^{2k}: Catalan(k) exactly for a k-design."""
        overlaps = np.abs(np.einsum("mab,nab->mn", us.conj(), us))
        return float(np.sum(overlaps ** (2 * k))) / len(us) ** 2

    @pytest.mark.parametrize("k, catalan", ((1, 1), (2, 2), (3, 5)))
    def test_frame_potential_is_catalan(self, k, catalan):
        assert abs(self._frame_potential(haar.clifford_group(), k) - catalan) <= 1e-12

    def test_tetrahedral_classes_are_only_a_two_design(self):
        # The first 12 elements are the binary tetrahedral group up to sign.
        tetrahedral = haar.clifford_group()[:12]
        potentials = [self._frame_potential(tetrahedral, k) for k in (1, 2, 3)]
        assert np.allclose(potentials, (1, 2, 6), rtol=0, atol=1e-12)

    def test_elements_are_special_unitary(self):
        group = haar.clifford_group()
        assert np.max(np.abs(np.linalg.det(group) - 1)) <= 1e-15
        products = np.einsum("mba,mbc->mac", group.conj(), group)
        assert np.max(np.abs(products - np.eye(2))) <= 1e-15

    def test_stack_is_read_only_and_built_once(self):
        group = haar.clifford_group()
        assert group.shape == (24, 2, 2) and not group.flags.writeable
        assert haar.clifford_group() is group

    def test_contains_generators_up_to_phase(self):
        group = haar.clifford_group()
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        s = np.diag([1.0, 1j])
        for target in (np.eye(2, dtype=complex), h, s):
            assert any(
                abs(abs(np.trace(target.conj().T @ g)) - 2.0) <= 1e-9 for g in group
            )

    def test_closed_under_multiplication(self):
        group = haar.clifford_group()
        for a in group[:6]:
            for b in group[:6]:
                prod = a @ b
                assert any(
                    abs(abs(np.trace(prod.conj().T @ g)) - 2.0) <= 1e-9 for g in group
                )

    def test_one_design_sum(self):
        group = haar.clifford_group()
        acc = sum(g @ states.density(states.ket("0")) @ g.conj().T for g in group)
        assert np.max(np.abs(acc / 24 - np.eye(2) / 2)) <= 1e-12

    def test_two_copy_sum_gives_symmetric_projector(self):
        group = haar.clifford_group()
        rho = states.density(states.ket("00"))
        acc = sum(
            np.kron(g, g) @ rho @ np.kron(g, g).conj().T for g in group
        )
        p_sym, _ = states.sym_antisym_projectors((0, 1), 2)
        assert np.max(np.abs(acc / 24 - p_sym / 3)) <= 1e-12


class TestBoxPattern:
    def test_string_and_wires(self):
        p = BoxPattern("uvui")
        assert p.labels == ("U", "V", "U", "I")
        assert p.wires("U") == (0, 2) and p.wires("V") == (1,) and len(p) == 4

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            BoxPattern(("U", "X"))

    def test_rejects_four_copies_of_one_box(self):
        with pytest.raises(ValueError):
            BoxPattern("UUUU")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BoxPattern(())

    @pytest.mark.parametrize(
        "pattern",
        ("uvI", "UVI", ["U", "V", "I"], BoxPattern("UVI")),
        ids=("mixed-case-str", "str", "list", "BoxPattern"),
    )
    def test_as_pattern_accepts(self, pattern):
        assert haar.as_pattern(pattern).labels == ("U", "V", "I")

    @pytest.mark.parametrize(
        "pattern",
        ("", "UX", "uuuu", ("u", "v"), ["U", "x"], b"UV"),
        ids=("empty", "unknown-label", "four-copies", "lower-tuple", "lower-list", "bytes"),
    )
    def test_as_pattern_rejects(self, pattern):
        # A lower-case label is read as upper case in a string only.
        with pytest.raises(ValueError):
            haar.as_pattern(pattern)


class TestAveragePattern:
    def test_singlet_same_box_is_fixed_point(self):
        res = average_pattern(states.bell("psi-"), "UU")
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        assert np.max(np.abs(res.rho - p_anti)) <= 1e-12
        assert res.stderr_bound == 0.0 and res.method == "design"

    def test_singlet_different_boxes_fully_mixes(self):
        res = average_pattern(states.bell("psi-"), "UV")
        assert np.max(np.abs(res.rho - np.eye(4) / 4)) <= 1e-12

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_bell_mixture_same_box_closed_form(self, w):
        psi = np.sqrt(w) * states.bell("psi-") + np.sqrt(1 - w) * states.bell("psi+")
        res = average_pattern(psi, "UU")
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        expected = w * p_anti + (1 - w) * p_sym / 3
        assert np.max(np.abs(res.rho - expected)) <= 1e-12

    def test_four_wire_flagged_state_closed_form(self):
        psi = states.four_qubit_test_state()
        res = average_pattern(psi, "UVUI")
        p_sym, p_anti = states.sym_antisym_projectors((0, 2), 4)
        flag = states.ket("0") + 0.5 * states.ket("1")
        expected = 0.25 * p_anti @ states.embed_operator(
            states.density(flag), (3,), 4
        ) + (1 / 16) * p_sym @ states.embed_operator(
            states.density(states.ket("1")), (3,), 4
        )
        assert np.max(np.abs(res.rho - expected)) <= 1e-12

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="state norm nan"):
            average_pattern([np.nan, 0.0], "U")

    def test_pattern_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UUU")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UU", "magic")

    def test_monte_carlo_needs_samples(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UU", "monte_carlo")

    def test_monte_carlo_rejects_one_sample(self):
        with pytest.raises(ValueError, match="one sample has no error bar"):
            average_pattern(states.bell("psi-"), "UV", "monte_carlo", samples=1)


class TestEngineAgreement:
    # Runs at 24 nodes keep the bare pattern as their id.
    @pytest.mark.parametrize(
        "pattern,nodes",
        [
            pytest.param(p, n, id=p if n == 24 else f"{p}-{n}")
            for p in ("UU", "UV", "UVU", "UVVU", "UVVV", "UUUV")
            for n in (8, 16, 24)
        ],
    )
    def test_design_vs_quadrature(self, pattern, nodes):
        rng = np.random.default_rng(11)
        n = len(pattern)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        d = average_pattern(psi, pattern, "design").rho
        q = average_pattern(psi, pattern, "quadrature", nodes=nodes)
        assert q.samples == nodes**3
        assert np.max(np.abs(d - q.rho)) <= 1e-12

    def test_monte_carlo_operator_twirl_rejected(self):
        # twirl_operator is the exact twirl only; Monte Carlo operator
        # averages go through haar._mc_operator_average as ket pairs.
        x = states.density(states.bell("psi-"))
        with pytest.raises(ValueError, match="'design' or 'quadrature'"):
            twirl_operator(x, "UU", "monte_carlo")

    def test_quadrature_below_exact_node_count_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            average_pattern(states.bell("psi-"), "UU", "quadrature", nodes=6)

    def test_quadrature_above_node_ceiling_rejected(self, monkeypatch):
        # The rule has nodes**3 points, so the ceiling is checked before any
        # grid is built.
        def no_grid(nodes):
            raise AssertionError(f"grid built for {nodes} nodes")

        monkeypatch.setattr(haar, "_quadrature_elements", no_grid)
        psi = states.bell("psi-")
        message = f"{haar.MIN_NODES} to {haar.MAX_NODES} nodes per angle, got 65"
        with pytest.raises(ValueError, match=message):
            twirl_operator(states.density(psi), "UU", "quadrature", nodes=65)
        with pytest.raises(ValueError, match=message):
            average_pattern(psi, "UU", "quadrature", nodes=65)

    def test_cached_channels_stable_and_read_only(self):
        x = states.density(states.approx_double_singlet_3q())
        first, _ = twirl_operator(x, "UVU", "quadrature", nodes=24)
        twirl_operator(x, "UVU", "quadrature", nodes=8)
        last, _ = twirl_operator(x, "UVU", "quadrature", nodes=24)
        assert np.array_equal(first, last)
        channel = haar._twirl_channel("quadrature", 24, 2)
        with pytest.raises(ValueError):
            channel[0, 0] = 1.0
        us, weights = haar._quadrature_elements(24)
        assert haar._quadrature_elements(24)[0] is us
        for grid in (us, weights):
            with pytest.raises(ValueError):
                grid[0] = 0.0

    @pytest.mark.parametrize(
        "method,nodes,k",
        [("design", None, k) for k in (1, 2, 3)]
        + [("quadrature", n, k) for n in (3, 4, 5, 6, 7, 8, 16, 24) for k in (1, 2, 3)],
    )
    def test_channel_matches_einsum_reference(self, method, nodes, k):
        # Nodes 3 to 6 sit below MIN_NODES: there the phi mask aliases, and it
        # must alias exactly as the full grid does.
        t = haar._twirl_channel(method, nodes, k)
        assert np.max(np.abs(t - _einsum_channel(method, nodes, k))) <= 1e-13

    def test_largest_rule_fits_one_chunk(self):
        # The channel build sums every element of its rule in one matrix
        # product; the largest rule must stay within the _CHUNK bound that
        # the Monte Carlo draw keeps too.
        assert len(haar._quadrature_elements(haar.MAX_NODES)[1]) <= haar._CHUNK
        assert len(haar.clifford_group()) <= haar._CHUNK

    def test_monte_carlo_within_four_stderr(self):
        psi = states.approx_double_singlet_3q()
        d = average_pattern(psi, "UVU", "design").rho
        m = average_pattern(psi, "UVU", "monte_carlo", samples=20000, seed=3)
        assert np.max(np.abs(m.rho - d)) <= 4.0 * m.stderr_bound

    def test_monte_carlo_deterministic_for_fixed_seed_and_shards(self):
        psi = states.bell("psi-")
        a = average_pattern(psi, "UV", "monte_carlo", samples=5000, seed=9)
        b = average_pattern(psi, "UV", "monte_carlo", samples=5000, seed=9)
        assert np.array_equal(a.rho, b.rho) and a.stderr_bound == b.stderr_bound

    def test_label_order_irrelevant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        pattern = BoxPattern("UVVU")
        for method in ("design", "quadrature"):

            def twirl(y, label):
                return haar._twirl_one_label(
                    y, pattern.wires(label), 4, method, 24
                )

            uv = twirl(twirl(x, "U"), "V")
            vu = twirl(twirl(x, "V"), "U")
            assert np.max(np.abs(uv - vu)) <= 1e-10
            assert np.max(np.abs(uv - twirl_operator(x, pattern, method)[0])) <= 1e-12

    @given(st.permutations(list(range(3))))
    @settings(max_examples=20, deadline=None)
    def test_covariant_under_wire_permutation(self, perm):
        psi = states.approx_double_singlet_3q()
        pattern = "UVU"
        avg = average_pattern(psi, pattern).rho
        permuted_pattern = "".join(pattern[p] for p in perm)
        avg_permuted = average_pattern(
            linalg.permute_qubits(psi, perm), permuted_pattern
        ).rho
        assert np.max(np.abs(avg_permuted - linalg.permute_qubits(avg, perm))) <= 1e-10


class TestNodeThreshold:
    """MIN_NODES pinned by numbers: exact on it, aliased one node below."""

    @pytest.mark.parametrize("pattern", ("UUUV", "UVVV"))
    def test_quadrature_at_min_nodes_matches_design(self, pattern):
        rng = np.random.default_rng(12)
        n = len(pattern)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        d = average_pattern(psi, pattern, "design").rho
        q = average_pattern(psi, pattern, "quadrature", nodes=haar.MIN_NODES).rho
        assert np.max(np.abs(d - q)) <= 1e-12

    def test_three_copy_channel_aliases_below_min_nodes(self):
        below = haar._twirl_channel("quadrature", haar.MIN_NODES - 1, 3)
        design = haar._twirl_channel("design", None, 3)
        assert np.max(np.abs(below - design)) >= 0.1

    def test_three_copy_coherences_vanish(self):
        # Under one box on three wires |000><111| and |000><D_2| average to
        # 0, D_2 the Dicke state of weight 2. One node below MIN_NODES the
        # phi rule aliases on the first: |000> and |111> differ by 6 in
        # their count of 1 bits, which 6 nodes cannot tell from 0.
        d2 = (states.ket("011") + states.ket("101") + states.ket("110")) / np.sqrt(3.0)
        coherences = [np.outer(states.ket("000"), b.conj()) for b in (states.ket("111"), d2)]

        for x in coherences:
            for method in ("design", "quadrature"):
                avg, _ = twirl_operator(x, "UUU", method, nodes=haar.MIN_NODES)
                assert np.max(np.abs(avg)) <= 1e-12, method
        # twirl_operator refuses the aliased rule, so the label is twirled directly.
        below = haar._twirl_one_label(coherences[0], (0, 1, 2), 3, "quadrature", haar.MIN_NODES - 1)
        assert abs(np.max(np.abs(below)) - 0.25) <= 1e-12


def _twirl_one_label_per_call(x, wires, n, method, nodes):
    """_twirl_one_label with its axis order rebuilt and argsorted on every call."""
    k = len(wires)
    if k == 0:
        return x
    t = haar._twirl_channel(method, nodes, k)
    rest = tuple(w for w in range(n) if w not in wires)
    axes = tuple(wires) + tuple(w + n for w in wires) + rest + tuple(w + n for w in rest)
    xt = x.reshape((2,) * (2 * n)).transpose(axes).reshape(4**k, -1)
    y = (t @ xt).reshape((2,) * (2 * n)).transpose(np.argsort(axes))
    return y.reshape(2**n, 2**n)


class TestTwirlAxisOrder:
    """The cached axis order gives the bits of the per-call one."""

    @pytest.mark.parametrize("method, nodes", (("design", None), ("quadrature", 24)))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_bits_match_per_call_axis_order(self, n, method, nodes):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        for k in range(min(n, haar.DESIGN_COPY_LIMIT) + 1):
            for wires in itertools.combinations(range(n), k):
                got = np.ascontiguousarray(haar._twirl_one_label(x, wires, n, method, nodes))
                want = np.ascontiguousarray(_twirl_one_label_per_call(x, wires, n, method, nodes))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), wires

    def test_axis_order_is_computed_once(self):
        assert haar._axis_order((0, 2), 3) is haar._axis_order((0, 2), 3)
        axes, inverse = haar._axis_order((0, 2), 3)
        assert axes == (0, 2, 3, 5, 1, 4)
        assert tuple(axes[i] for i in inverse) == tuple(range(6))


def _einsum_channel(method, nodes, k):
    """k-copy twirl channel as one einsum over the whole element stack.

    The direct definition T[(c, d), (a, b)] = sum_m w_m U[c, a] conj(U[d, b])
    with U = U_m^{(x)k}, without chunks, matrix products or a closed-form
    phi sum: the quadrature stack is the full nodes**3 product grid over
    (theta, phi, x = cos(mu)), each point weighted sin^2(theta/2) w_x /
    nodes**2.
    """
    if method == "design":
        us = haar.clifford_group()
        weights = np.full(len(us), 1.0 / len(us))
    else:
        x, w_x = np.polynomial.legendre.leggauss(nodes)
        angles = 2.0 * np.pi * np.arange(nodes) / nodes
        theta, phi, cos_mu = (
            g.reshape(-1) for g in np.meshgrid(angles, angles, x, indexing="ij")
        )
        weights = np.sin(theta / 2) ** 2 * np.tile(w_x, nodes**2) / nodes**2
        sin_mu = np.sqrt(1.0 - cos_mu**2)
        us = haar._su2_rotation(theta, (sin_mu * np.cos(phi), sin_mu * np.sin(phi), cos_mu))
    uk = haar._kron_stack(us, k)
    return np.einsum("mca,mdb,m->cdab", uk, uk.conj(), weights).reshape(4**k, 4**k)


def _kron_reference(x, pattern, samples, seed):
    """Monte Carlo mean of W x W+ with W built by np.kron, one sample at a time.

    Redraws the documented stream: one block of normals for "U" if present,
    then one for "V", each row a unit quaternion a + i(b X + c Y + d Z).
    """
    rng = np.random.default_rng(seed)
    blocks = {
        box: rng.normal(size=(samples, 4)) for box in ("U", "V") if box in pattern
    }
    total = np.zeros_like(x)
    for s in range(samples):
        gates = {"I": np.eye(2)}
        for box, q in blocks.items():
            a, b, c, d = q[s] / np.linalg.norm(q[s])
            gates[box] = np.array([[a + 1j * d, c + 1j * b], [-c + 1j * b, a - 1j * d]])
        w = np.ones((1, 1))
        for label in pattern:
            w = np.kron(w, gates[label])
        total += w @ x @ w.conj().T
    return total / samples


def _apply_boxes_samples_first(psi, pattern, gates, m):
    """W_s psi for each sample s, shape (m, d): the sample-first kernel.

    The samples-last haar.apply_boxes must reproduce it bit for bit: per
    element it forms the same two products and adds them in the same order.
    """
    out = np.broadcast_to(psi, (m, len(psi)))
    for wire, label in enumerate(haar.as_pattern(pattern).labels):
        if label == "I":
            continue
        g = gates[label][:, None, :, :, None]  # (m, 1, out bit, in bit, 1)
        o = out.reshape(m, 2**wire, 2, -1)  # (m, wires before, in bit, after)
        new = g[:, :, :, 0] * o[:, :, None, 0]
        new += g[:, :, :, 1] * o[:, :, None, 1]
        out = new
    return out.reshape(m, len(psi))


def _mc_figure_samples_first(scenario, samples, seed):
    """One scenario's scenarios._mc_figures scored on sample-first batches of kets."""
    mode, mapping = scenario.povm.decision
    right = mode == "unambiguous"
    scored = []
    for i, pattern in enumerate((scenario.pattern1, scenario.pattern2)):
        labels = [l for l, t in mapping.items() if (t == i) == right]
        if labels:
            elements = (np.asarray(scenario.povm.elements[l]) for l in labels)
            scored.append((pattern, 0.5 * sum(elements)))
    total, shift, dev, dev_sq = 0.0, None, 0.0, 0.0
    labels = scenario.pattern1.labels + scenario.pattern2.labels
    for m, gates in haar.draw_boxes(samples, seed, labels):
        values = np.zeros(m)
        for pattern, op in scored:
            out = _apply_boxes_samples_first(scenario.state, pattern, gates, m)
            # Scored in _mc_figures' order: on (d, m), y = E o and one column
            # sum over the real and imaginary parts.
            o = np.ascontiguousarray(out.T)
            terms = np.einsum("ij,ij->j", (op @ o).view(float), o.view(float))
            values += terms[0::2] + terms[1::2]
        if shift is None:
            shift = values[0]
        total += float(values.sum())
        dev += float((values - shift).sum())
        dev_sq += float(((values - shift) ** 2).sum())
    var = max(dev_sq / samples - (dev / samples) ** 2, 0.0)
    return total / samples, float(np.sqrt(var / samples))


def _mc_figures_row_sum(batch, samples, seed):
    """scenarios._mc_figures as it scored before the samples-last layout.

    Each simulated batch is viewed as (m, d), and a hypothesis's value is the
    row sum of conj(o) E times o, one short row of d entries per sample.
    """
    plan = {}
    for i, scenario in enumerate(batch):
        for pattern, scored in zip((scenario.pattern1, scenario.pattern2), scenario.povm.scored):
            if scored:
                op = 0.5 * sum(np.asarray(scenario.povm.elements[l]) for l in scored)
                key = scenarios._hypothesis_key(scenario.state, pattern)
                plan.setdefault(key, (scenario.state, pattern, []))[2].append((i, op))
    tallies = [[0.0, None, 0.0, 0.0] for _ in batch]  # total, shift, dev, dev_sq
    for m, gates in haar.draw_boxes(samples, seed, "UV"):
        values = np.zeros((len(batch), m))
        for psi, pattern, consumers in plan.values():
            out = haar.apply_boxes(psi, pattern, gates, m).T
            for i, op in consumers:
                values[i] += np.real(np.sum((out.conj() @ op) * out, axis=1))
        for tally, row in zip(tallies, values):
            if tally[1] is None:
                tally[1] = row[0]
            tally[0] += float(row.sum())
            tally[2] += float((row - tally[1]).sum())
            tally[3] += float(((row - tally[1]) ** 2).sum())
    figures = []
    for total, _, dev, dev_sq in tallies:
        var = max(dev_sq / samples - (dev / samples) ** 2, 0.0)
        figures.append((total / samples, float(np.sqrt(var / samples))))
    return figures


class TestMonteCarloKernel:
    def test_matches_explicit_kron_on_nonsymmetric_operator(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        x = np.outer(a, b.conj())
        mean, stderr = haar._mc_operator_average(a, b, BoxPattern("UVVI"), 37, 5)
        assert stderr > 0
        assert np.max(np.abs(mean - _kron_reference(x, "UVVI", 37, 5))) <= 1e-12

    def test_all_idle_pattern_returns_input(self):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        x = np.outer(a, b.conj())
        mean, stderr = haar._mc_operator_average(a, b, BoxPattern("II"), 9, 5)
        assert np.max(np.abs(mean - _kron_reference(x, "II", 9, 5))) <= 1e-12
        assert np.array_equal(mean, x) and stderr == 0.0

    def test_four_wire_density_matches_kron(self):
        scenario = scenarios.build_scenario("two-ref-4q-subspace")
        psi, pattern = scenario.state, scenario.pattern1
        res = average_pattern(psi, pattern, "monte_carlo", samples=37, seed=5)
        reference = _kron_reference(states.density(psi), str(pattern), 37, 5)
        assert res.samples == 37 and res.stderr_bound > 0
        assert np.max(np.abs(res.rho - reference)) <= 1e-12

    def test_identity_suite_operators_match_kron(self, monkeypatch):
        calls = []
        average = haar._mc_operator_average

        def recorded(a, b, pattern, samples, seed):
            out = average(a, b, pattern, samples, seed)
            calls.append((np.outer(a, b.conj()), str(pattern), samples, seed, out))
            return out

        monkeypatch.setattr(haar, "_mc_operator_average", recorded)
        haar.twirl_identity_suite(("monte_carlo",), samples=37, seed=5)
        assert len(calls) == 6
        for x, pattern, samples, seed, (mean, stderr) in calls:
            reference = _kron_reference(x, pattern, samples, seed)
            assert samples == 37 and np.max(np.abs(mean - reference)) <= 1e-12, pattern

    def test_all_idle_density_is_exact(self):
        psi = states.four_qubit_test_state()
        res = average_pattern(psi, "IIII", "monte_carlo", samples=9, seed=5)
        assert np.array_equal(res.rho, states.density(psi))
        assert res.samples == 9 and res.stderr_bound == 0.0

    def test_rank_one_averages_simulate_one_ket_per_sample(self, monkeypatch):
        # |psi><psi| and each identity-suite operator x = |a><b| go through
        # the boxes as one ket per sample, never as the d columns of x.
        shapes = []
        apply_boxes = haar.apply_boxes

        def recorded(psi, pattern, gates, m):
            out = apply_boxes(psi, pattern, gates, m)
            shapes.append((psi.shape, out.shape))
            return out

        monkeypatch.setattr(haar, "apply_boxes", recorded)
        scenario = scenarios.build_scenario("order-uv-refs")
        average_pattern(scenario.state, scenario.pattern1, "monte_carlo", samples=50, seed=1)
        assert shapes == [((16,), (16, 50))]
        shapes.clear()
        haar.twirl_identity_suite(("monte_carlo",), samples=50, seed=1)
        # Each case pushes its ket pair a and b as two kets.
        assert shapes == [((d,), (d, 50)) for d in (2, 2, 2, 4, 4, 4) for _ in "ab"]

    def test_operator_average_memory_is_one_sample_buffer(self):
        scenario = scenarios.build_scenario("order-uv-refs")
        d, m = len(scenario.state), haar._CHUNK

        def peak():
            tracemalloc.start()
            try:
                average_pattern(scenario.state, scenario.pattern1, "monte_carlo", samples=m, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()
        # One (d, d, m) complex buffer of per-sample deviations is the unit;
        # the kets and gates of the chunk fit in half a unit more.
        assert peak() <= 1.5 * d * d * m * 16

    def test_apply_boxes_on_kets_matches_kron(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        ((m, gates),) = list(haar.draw_boxes(6, 3, "UIV"))
        out = haar.apply_boxes(psi, "UIV", gates, m)
        assert out.shape == (8, m) and out.flags.c_contiguous
        for s in range(m):
            w = np.kron(np.kron(gates["U"][s], np.eye(2)), gates["V"][s])
            assert np.max(np.abs(out[:, s] - w @ psi)) <= 1e-12

    @pytest.mark.parametrize("m", (1, 5))
    def test_all_idle_pattern_returns_contiguous_copy(self, m):
        psi = states.four_qubit_test_state()
        out = haar.apply_boxes(psi, "IIII", {}, m)
        assert out.shape == (16, m) and out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, psi)
        assert all(np.array_equal(out[:, s], psi) for s in range(m))

    @pytest.mark.parametrize("samples", (1, 1000, haar._CHUNK))
    def test_kernel_on_scenario_kets_matches_samples_first_bits(self, samples):
        ((m, gates),) = haar.draw_boxes(samples, 17, "UV")
        rng = np.random.default_rng(24)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        cases = []
        for sid in scenarios.SCENARIO_IDS:
            scenario = scenarios.build_scenario(sid)
            cases += [(scenario.state, p, sid) for p in (scenario.pattern1, scenario.pattern2)]
        # A strided ket: apply_boxes takes any view.
        cases.append((x[::2], BoxPattern("UVVU"), "strided"))
        for psi, pattern, name in cases:
            old = _apply_boxes_samples_first(psi, pattern, gates, m)
            out = haar.apply_boxes(psi, pattern, gates, m)
            assert out.shape == (len(psi), m) and out.flags.c_contiguous
            assert np.array_equal(out.T, old), (name, str(pattern))

    @pytest.mark.parametrize("sid", ("one-ref-minerror", "two-ref-minerror-3q", "order-two-u-refs"))
    def test_mc_figure_matches_samples_first_scorer_bits(self, sid):
        scenario = scenarios.build_scenario(sid)
        for samples, seed in ((1, 1), (5000, 7)):
            assert scenarios._mc_figures((scenario,), samples, seed)[0] == (
                _mc_figure_samples_first(scenario, samples, seed)
            )

    @pytest.mark.parametrize("samples, seed", ((5000, 7), (2 * haar._CHUNK + 1, 3)))
    def test_batch_figures_match_samples_first_scorer_bits(self, samples, seed):
        # Each scenario is scored on its own here, so a figure that read a
        # product buffer another scenario of the batch overwrote would differ.
        batch = [scenarios.build_scenario(sid) for sid in scenarios.SCENARIO_IDS]
        figures = scenarios._mc_figures(batch, samples, seed)
        for scenario, figure in zip(batch, figures):
            assert figure == _mc_figure_samples_first(scenario, samples, seed), scenario.id

    @pytest.mark.parametrize("samples, seed", ((5000, 7), (2 * haar._CHUNK + 1, 3), (10, 2)))
    def test_batch_figures_match_row_sum_scorer(self, samples, seed):
        # The column sum adds the same terms as the row sum in another
        # order, so the figures agree to rounding, not bit for bit.
        batch = [scenarios.build_scenario(sid) for sid in scenarios.SCENARIO_IDS]
        figures = scenarios._mc_figures(batch, samples, seed)
        for (mean, stderr), (ref_mean, ref_stderr), sid in zip(
            figures, _mc_figures_row_sum(batch, samples, seed), scenarios.SCENARIO_IDS
        ):
            assert abs(mean - ref_mean) <= 1e-15 and abs(stderr - ref_stderr) <= 1e-15, sid

    def test_chunked_draw_keeps_stream(self, monkeypatch):
        whole = list(haar.draw_boxes(10, 8, "UV"))
        monkeypatch.setattr(haar, "_CHUNK", 3)
        chunks = list(haar.draw_boxes(10, 8, "UV"))
        assert [m for m, _ in chunks] == [3, 3, 3, 1]
        for box in ("U", "V"):
            joined = np.concatenate([g[box] for _, g in chunks])
            assert np.array_equal(joined, whole[0][1][box])

    def test_draw_memory_does_not_grow_with_samples(self):
        def peak(chunks):
            tracemalloc.start()
            try:
                for _ in haar.draw_boxes(chunks * haar._CHUNK, 4, "UV"):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        # Holding whole blocks of normals would cost 64 B per sample on top.
        assert peak(64) <= 1.25 * peak(4)


class TestTwirlIdentitySuite:
    def test_exact_engines(self):
        checks = haar.twirl_identity_suite(methods=("design", "quadrature"))
        assert len(checks) == 12
        for c in checks:
            assert c.passed, f"{c.identity} under {c.method}: {c.deviation}"
        assert all(c.tolerance == 1e-12 for c in checks)

    def test_monte_carlo_within_own_stderr(self):
        checks = haar.twirl_identity_suite(methods=("monte_carlo",), samples=20000)
        assert len(checks) == 6
        for c in checks:
            assert c.passed, f"{c.identity}: {c.deviation} vs {c.tolerance}"

    def test_monte_carlo_cases_use_independent_streams(self):
        # Case i once used seed + i, so seed 0's second identity replayed
        # seed 1's first one with an identical deviation.
        first = haar.twirl_identity_suite(("monte_carlo",), samples=2000, seed=1)[0]
        second = haar.twirl_identity_suite(("monte_carlo",), samples=2000, seed=0)[1]
        assert (first.identity, second.identity) == ("|0><0| to I/2", "|1><1| to I/2")
        assert first.deviation != second.deviation

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            haar.twirl_identity_suite(methods=("magic",))

    def test_monte_carlo_rejects_one_sample(self):
        with pytest.raises(ValueError, match="one sample has no error bar"):
            haar.twirl_identity_suite(("monte_carlo",), samples=1)
