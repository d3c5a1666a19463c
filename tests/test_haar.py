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
    def test_from_string_and_wires(self):
        p = BoxPattern.from_string("uvui")
        assert p.labels == ("U", "V", "U", "I")
        assert p.wires("U") == (0, 2) and p.wires("V") == (1,) and len(p) == 4

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            BoxPattern(("U", "X"))

    def test_rejects_four_copies_of_one_box(self):
        with pytest.raises(ValueError):
            BoxPattern.from_string("UUUU")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BoxPattern(())


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
        psi = states.bell_combination(np.sqrt(w), np.sqrt(1 - w), 0, 0)
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

    def test_pattern_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UUU")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UU", "magic")

    def test_monte_carlo_needs_samples(self):
        with pytest.raises(ValueError):
            average_pattern(states.bell("psi-"), "UU", "monte_carlo")


class TestEngineAgreement:
    # Runs at the default node count keep the bare pattern as their id.
    @pytest.mark.parametrize(
        "pattern,nodes",
        [
            pytest.param(p, n, id=p if n == haar.DEFAULT_NODES else f"{p}-{n}")
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

    def test_quadrature_below_exact_node_count_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            average_pattern(states.bell("psi-"), "UU", "quadrature", nodes=6)

    def test_cached_channels_stable_and_read_only(self):
        x = states.density(states.approx_double_singlet_3q())
        first, _, _ = twirl_operator(x, "UVU", "quadrature", nodes=24)
        twirl_operator(x, "UVU", "quadrature", nodes=8)
        last, _, _ = twirl_operator(x, "UVU", "quadrature", nodes=24)
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
        + [("quadrature", n, k) for n in (7, 8, 16, 24) for k in (1, 2, 3)],
    )
    def test_channel_matches_einsum_reference(self, method, nodes, k):
        t = haar._twirl_channel(method, nodes, k)
        assert np.max(np.abs(t - _einsum_channel(method, nodes, k))) <= 1e-13

    def test_chunked_channel_build_matches_unchunked(self, monkeypatch):
        rules = (("design", None), ("quadrature", 8))
        try:
            haar._twirl_channel.cache_clear()
            monkeypatch.setattr(haar, "_CHUNK", 10**9)
            whole = {rule: haar._twirl_channel(*rule, 3) for rule in rules}
            haar._twirl_channel.cache_clear()
            monkeypatch.setattr(haar, "_CHUNK", 5)
            for rule, t in whole.items():
                assert np.max(np.abs(haar._twirl_channel(*rule, 3) - t)) <= 1e-13
        finally:
            # Channels built from 5-element chunks must not serve later tests.
            haar._twirl_channel.cache_clear()

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
        pattern = BoxPattern.from_string("UVVU")
        for method in ("design", "quadrature"):

            def twirl(y, label):
                return haar._twirl_one_label(
                    y, pattern.wires(label), 4, method, haar.DEFAULT_NODES
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


def _einsum_channel(method, nodes, k):
    """k-copy twirl channel as one einsum over the whole element stack.

    The direct definition T[(c, d), (a, b)] = sum_m w_m U[c, a] conj(U[d, b])
    with U = U_m^{(x)k}, without chunks or matrix products.
    """
    if method == "design":
        us = np.stack(haar.clifford_group())
        weights = np.full(len(us), 1.0 / len(us))
    else:
        us, weights = haar._quadrature_elements(nodes)
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


def _apply_boxes_samples_first(batch, pattern, gates):
    """W_s batch[s] for a batch of shape (m, d, r): the sample-first kernel.

    The samples-last haar.apply_boxes must reproduce it bit for bit: per
    element it forms the same two products and adds them in the same order.
    """
    m, d, r = batch.shape
    out = batch
    for wire, label in enumerate(haar.as_pattern(pattern).labels):
        if label == "I":
            continue
        g = gates[label][:, None, :, :, None, None]  # (m, 1, out bit, in bit, 1, 1)
        o = out.reshape(m, 2**wire, 2, -1, r)  # (m, wires before, in bit, after, r)
        new = g[:, :, :, 0] * o[:, :, None, 0]
        new += g[:, :, :, 1] * o[:, :, None, 1]
        out = new
    return out.reshape(m, d, r)


def _mc_figure_samples_first(scenario, samples, seed):
    """scenarios._mc_figure scored on sample-first batches of kets."""
    right = scenario.mode == "unambiguous"
    scored = []
    for i, pattern in enumerate((scenario.pattern1, scenario.pattern2)):
        labels = [l for l, t in scenario.mapping.items() if (int(t) == i) == right]
        if labels:
            elements = (np.asarray(scenario.povm.elements[l]) for l in labels)
            scored.append((pattern, scenario.priors[i] * sum(elements)))
    psi = scenario.state[:, None]
    total, shift, dev, dev_sq = 0.0, None, 0.0, 0.0
    labels = scenario.pattern1.labels + scenario.pattern2.labels
    for m, gates in haar.draw_boxes(samples, seed, labels):
        kets = np.broadcast_to(psi, (m,) + psi.shape)
        values = np.zeros(m)
        for pattern, op in scored:
            out = _apply_boxes_samples_first(kets, pattern, gates).reshape(m, -1)
            values += np.real(np.sum((out.conj() @ op) * out, axis=1))
        if shift is None:
            shift = values[0]
        total += float(values.sum())
        dev += float((values - shift).sum())
        dev_sq += float(((values - shift) ** 2).sum())
    var = max(dev_sq / samples - (dev / samples) ** 2, 0.0)
    return total / samples, float(np.sqrt(var / samples))


class TestMonteCarloKernel:
    def test_matches_explicit_kron_on_nonsymmetric_operator(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        mean, count, stderr = twirl_operator(x, "UVVI", "monte_carlo", samples=37, seed=5)
        assert count == 37 and stderr > 0
        assert np.max(np.abs(mean - _kron_reference(x, "UVVI", 37, 5))) <= 1e-12

    def test_all_idle_pattern_returns_input(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mean, count, stderr = twirl_operator(x, "II", "monte_carlo", samples=9, seed=5)
        assert np.max(np.abs(mean - _kron_reference(x, "II", 9, 5))) <= 1e-12
        assert np.array_equal(mean, x) and count == 9 and stderr == 0.0

    def test_apply_boxes_on_kets_matches_kron(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        ((m, gates),) = list(haar.draw_boxes(6, 3, "UIV"))
        kets = np.broadcast_to(psi[:, None, None], (8, 1, m))
        out = haar.apply_boxes(kets, "UIV", gates)
        for s in range(m):
            w = np.kron(np.kron(gates["U"][s], np.eye(2)), gates["V"][s])
            assert np.max(np.abs(out[:, 0, s] - w @ psi)) <= 1e-12

    @pytest.mark.parametrize("samples", (1, 1000, haar._CHUNK))
    def test_kernel_on_scenario_kets_matches_samples_first_bits(self, samples):
        ((m, gates),) = haar.draw_boxes(samples, 17, "UV")
        for sid in scenarios.SCENARIO_IDS:
            scenario = scenarios.build_scenario(sid)
            psi = scenario.state
            for pattern in (scenario.pattern1, scenario.pattern2):
                kets = np.broadcast_to(psi[:, None, None], (len(psi), 1, m))
                old = _apply_boxes_samples_first(
                    np.broadcast_to(psi[:, None], (m, len(psi), 1)), pattern, gates
                )
                out = haar.apply_boxes(kets, pattern, gates)
                assert np.array_equal(out.transpose(2, 0, 1), old), (sid, str(pattern))

    @pytest.mark.parametrize("samples", (1, 1000, haar._CHUNK))
    def test_kernel_on_operator_columns_matches_samples_first_bits(self, samples):
        rng = np.random.default_rng(24)
        built = [scenarios.build_scenario(sid) for sid in scenarios.SCENARIO_IDS]
        patterns = {p for sc in built for p in (sc.pattern1, sc.pattern2)}
        ((m, gates),) = haar.draw_boxes(samples, 18, "UV")
        x = rng.normal(size=(16, 16, m)) + 1j * rng.normal(size=(16, 16, m))
        for pattern in sorted(patterns, key=str):
            d = 2 ** len(pattern)
            # A strided, transposed batch, as in the second pass of the
            # operator average.
            batch = x[:d, :d].transpose(1, 0, 2)
            old = _apply_boxes_samples_first(batch.transpose(2, 0, 1), pattern, gates)
            out = haar.apply_boxes(batch, pattern, gates)
            assert np.array_equal(out.transpose(2, 0, 1), old), str(pattern)

    @pytest.mark.parametrize("sid", ("one-ref-minerror", "two-ref-minerror-3q", "order-two-u-refs"))
    def test_mc_figure_matches_samples_first_scorer_bits(self, sid):
        scenario = scenarios.build_scenario(sid)
        for samples, seed in ((1, 1), (5000, 7)):
            assert scenarios._mc_figure(scenario, samples, seed) == (
                _mc_figure_samples_first(scenario, samples, seed)
            )

    def test_chunked_draw_keeps_stream(self, monkeypatch):
        whole = list(haar.draw_boxes(10, 8, "UV"))
        monkeypatch.setattr(haar, "_CHUNK", 3)
        chunks = list(haar.draw_boxes(10, 8, "UV"))
        assert [m for m, _ in chunks] == [3, 3, 3, 1]
        for box in ("U", "V"):
            joined = np.concatenate([g[box] for _, g in chunks])
            assert np.array_equal(joined, whole[0][1][box])


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
