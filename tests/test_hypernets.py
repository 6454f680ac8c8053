"""Controller tests: activations, attention, static net, GRU, checkpoints."""

import json

import numpy as np
import pytest

from gecsr import hypernets
from gecsr.hypernets import (
    AttentionHead,
    DirectDampingParams,
    DirectSchedulePolicy,
    HyperGruParams,
    HyperGruPolicy,
    HyperNetParams,
    MultiAttention,
    StaticHyperNetPolicy,
    attention_head,
    checkpoint_payload,
    gru_step,
    hypernet_forward,
    init_variant_params,
    load_checkpoint,
    multi_attention,
    params_from_checkpoint,
    params_from_vector,
    params_to_vector,
    relu,
    save_checkpoint,
    sigmoid,
    spectrum_input,
)


def scenario(n=8, sqrt_snr=10.0, seed=0) -> tuple[np.ndarray, float]:
    """A unit-norm decreasing spectrum of width n with sqrt(SNR)."""
    rng = np.random.default_rng(seed)
    sig = np.sort(rng.random(n))[::-1] + 0.1
    return sig / np.linalg.norm(sig), sqrt_snr


def reset(policy, n=8, sqrt_snr=10.0, seed=0, tape=False):
    """Reset `policy` on `scenario(n, sqrt_snr, seed)` and return it."""
    policy.reset(*scenario(n, sqrt_snr, seed), tape=tape)
    return policy


class TestActivations:
    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, 2.0])), [0.0, 2.0])

    def test_tanh_origin(self):
        assert np.tanh(0.0) == 0.0

    def test_ranges(self):
        # Stay inside the float64-representable open intervals (tanh
        # saturates to exactly +-1 beyond |x| ~ 19).
        v = np.linspace(-18, 18, 101)
        s = sigmoid(v)
        assert np.all((s > 0) & (s < 1))
        t = np.tanh(v)
        assert np.all((t > -1) & (t < 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sigmoid_saturates_without_overflow(self):
        # A gate fed sqrt(SNR) = 1e15 sees inputs far past e's exponent range.
        assert sigmoid(1000.0) == 1.0
        assert 0.0 < sigmoid(-1000.0) < 1e-300
        np.testing.assert_array_equal(sigmoid(np.array([-1000.0, 1000.0])) > 0.5,
                                      [False, True])

    def test_sigmoid_unchanged_inside_exponent_range(self):
        v = np.linspace(-709.0, 709.0, 20001)
        np.testing.assert_array_equal(sigmoid(v), 1.0 / (1.0 + np.exp(-v)))
        for x in (-709.0, -20.5, 0.0, 3.25, 709.0):
            assert sigmoid(x) == 1.0 / (1.0 + np.exp(-x))


class TestAttention:
    def test_zero_weights_average(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        head = AttentionHead(np.zeros((4, 4)), np.zeros((4, 4)))
        np.testing.assert_allclose(attention_head(s, head), np.full(4, 2.5))

    def test_singleton_identity(self):
        head = AttentionHead(np.array([[2.0]]), np.array([[-1.0]]))
        np.testing.assert_allclose(attention_head(np.array([3.0]), head), [3.0])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(1)
        d = 9
        head = AttentionHead(rng.normal(size=(d, d)), rng.normal(size=(d, d)))
        s = rng.normal(size=d)
        b = head.w_b @ s
        c = head.w_c @ s
        logits = np.outer(b, c) / np.sqrt(d)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(d), atol=1e-12)
        assert np.all(weights > 0)
        np.testing.assert_allclose(attention_head(s, head), weights @ s, atol=1e-12)

    def test_permutation_equivariance(self):
        # Permuting input positions together with both weight matrices
        # permutes the output consistently.
        rng = np.random.default_rng(2)
        d = 6
        head = AttentionHead(rng.normal(size=(d, d)), rng.normal(size=(d, d)))
        s = rng.normal(size=d)
        perm = rng.permutation(d)
        p_mat = np.eye(d)[perm]
        head_p = AttentionHead(p_mat @ head.w_b @ p_mat.T, p_mat @ head.w_c @ p_mat.T)
        np.testing.assert_allclose(attention_head(p_mat @ s, head_p),
                                   p_mat @ attention_head(s, head), atol=1e-10)

    def test_multi_single_head(self):
        rng = np.random.default_rng(3)
        head = AttentionHead(rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
        s = rng.normal(size=5)
        multi = MultiAttention(heads=(head,), mix=np.array([1.0]))
        np.testing.assert_allclose(multi_attention(s, multi),
                                   s + attention_head(s, head))

    def test_multi_zero_mix(self):
        # With a zero mix the residual sublayer passes its input on.
        rng = np.random.default_rng(4)
        heads = tuple(AttentionHead(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
                      for _ in range(3))
        s = rng.normal(size=4)
        multi = MultiAttention(heads=heads, mix=np.zeros(3))
        np.testing.assert_array_equal(multi_attention(s, multi), s)

    def test_multi_linearity(self):
        rng = np.random.default_rng(5)
        heads = tuple(AttentionHead(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
                      for _ in range(4))
        s = rng.normal(size=4)
        mix = np.array([0.0, 0.0, 2.5, 0.0])
        multi = MultiAttention(heads=heads, mix=mix)
        np.testing.assert_allclose(multi_attention(s, multi),
                                   s + 2.5 * attention_head(s, heads[2]), atol=1e-12)

    def test_multi_residual_adds_input(self):
        rng = np.random.default_rng(6)
        heads = tuple(AttentionHead(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
                      for _ in range(3))
        s, mix = rng.normal(size=4), rng.normal(size=3)
        mixed = sum(w * attention_head(s, head) for w, head in zip(mix, heads))
        np.testing.assert_allclose(
            multi_attention(s, MultiAttention(heads=heads, mix=mix)), s + mixed,
            rtol=1e-15, atol=1e-15)


class TestHyperNet:
    def test_zero_weights_give_half(self):
        params = HyperNetParams(w1=np.zeros((4, 9)), w2=np.zeros((5, 4)))
        out = hypernet_forward(np.ones(9), params)
        np.testing.assert_allclose(out, np.full(5, 0.5))

    def test_output_strictly_inside_unit_interval(self):
        params = init_variant_params("hypernet", 8, 7, hidden=6, seed=3)
        out = hypernet_forward(np.ones(9), params)
        assert np.all((out > 0) & (out < 1))

    def test_snr_sensitivity_smoke(self):
        params = init_variant_params("hypernet", 8, 4, hidden=6, seed=4)
        sig, _ = scenario()
        s_lo = np.concatenate([sig, [3.0]])
        s_hi = np.concatenate([sig, [30.0]])
        assert not np.allclose(hypernet_forward(s_lo, params),
                               hypernet_forward(s_hi, params))

    def test_shape_mismatch(self):
        params = init_variant_params("hypernet", 8, 4, hidden=6, seed=5)
        with pytest.raises(ValueError):
            hypernet_forward(np.ones(7), params)

    def test_attention_variant_runs(self):
        params = init_variant_params("hypernet_attn", 8, 4, hidden=6, heads=4, seed=6)
        out = hypernet_forward(np.ones(9), params)
        assert out.shape == (4,) and np.all((out > 0) & (out < 1))


class TestGruStep:
    def test_zero_weights_fixed_point(self):
        params = HyperGruParams(w_update=np.zeros((3, 3 + 6)),
                                w_reset=np.zeros((3, 9)),
                                w_cand=np.zeros((3, 9)),
                                w_out=np.zeros(3))
        state, beta = gru_step(np.zeros(3), np.ones(6), params)
        np.testing.assert_array_equal(state, np.zeros(3))
        assert beta == 0.5

    def test_closed_update_gate_freezes_state(self):
        # Large negative update-gate weights force z ~ 0: state is carried.
        h, d = 4, 5
        params = init_variant_params("hypergru", d - 4, 3, hidden=h, seed=7)
        params.w_update[:, :] = 0.0
        params.w_update[:, h:] = -50.0  # input features are positive here
        state0 = np.tanh(np.random.default_rng(8).normal(size=h))
        state1, _ = gru_step(state0, np.ones(d), params)
        np.testing.assert_allclose(state1, state0, atol=1e-12)

    def test_state_stays_in_unit_box(self):
        rng = np.random.default_rng(9)
        params = init_variant_params("hypergru", 4, 3, hidden=6, seed=10)
        state = np.zeros(6)
        for _ in range(50):
            state, beta = gru_step(state, rng.normal(size=8), params)
            assert np.all(np.abs(state) < 1.0)
            assert 0.0 < beta < 1.0

    def test_attention_readout_changes_beta_only(self):
        base = init_variant_params("hypergru", 4, 3, hidden=5, seed=11)
        attn = init_variant_params("hypergru_attn", 4, 3, hidden=5, seed=11)
        s = np.ones(8)
        st_b, _ = gru_step(np.zeros(5), s, base)
        st_a, _ = gru_step(np.zeros(5), s, attn)
        np.testing.assert_allclose(st_a, st_b, atol=1e-14)


class TestPolicies:
    def test_direct_lookup_and_overflow(self):
        # Past its trained depth the schedule is 0.5 and takes no gradient.
        params = init_variant_params("net_direct", 8, 4)
        policy = reset(DirectSchedulePolicy(params))
        assert policy.beta("z", 1, 1.0) == pytest.approx(0.9, abs=1e-9)
        assert policy.beta("z", 5, 1.0) == policy.beta("x", 9, None) == 0.5
        reset(policy, tape=True)
        assert policy.backward_beta("z", 5, 1.0) == 0.0
        assert not np.any(params_to_vector(policy.gradients()))

    def test_direct_tied_sides_match(self):
        params = init_variant_params("net_direct", 8, 3, tied=True)
        policy = reset(DirectSchedulePolicy(params))
        for t in (1, 2, 3):
            assert policy.beta("z", t, 1.0) == policy.beta("x", t, 1.0)

    def test_static_ties_sides(self):
        params = init_variant_params("hypernet", 8, 5, hidden=6, seed=12)
        policy = reset(StaticHyperNetPolicy(params))
        for t in (1, 3, 5):
            assert policy.beta("z", t, 1.0) == policy.beta("x", t, 1.0)

    def test_static_overflow(self):
        # Past its trained depth the net is not run: 0.5, with no gradient.
        params = init_variant_params("hypernet", 8, 2, hidden=6, seed=13)
        policy = StaticHyperNetPolicy(params)
        assert policy.beta("z", 3, None) == policy.beta("x", 7, 1.0) == 0.5
        reset(policy, tape=True)
        policy.beta("z", 1, 1.0)
        policy.backward_beta("z", 3, 1.0)
        assert not np.any(params_to_vector(policy.gradients()))

    def test_static_zero_weights(self):
        params = HyperNetParams(w1=np.zeros((4, 9)), w2=np.zeros((3, 4)))
        policy = reset(StaticHyperNetPolicy(params))
        assert policy.beta("x", 2, 1.0) == 0.5

    def test_static_cache_reset_between_runs(self):
        params = init_variant_params("hypernet", 8, 3, hidden=6, seed=14)
        policy = StaticHyperNetPolicy(params)
        b1 = reset(policy, sqrt_snr=3.0).beta("z", 1, 1.0)
        b2 = reset(policy, sqrt_snr=30.0).beta("z", 1, 1.0)
        assert b1 != b2

    def test_gru_policy_stateful_determinism(self):
        params = init_variant_params("hypergru", 8, 3, hidden=6, seed=15)
        policy = HyperGruPolicy(params)
        sequence = [10.0**-k for k in range(6)]

        def run():
            reset(policy)
            out = []
            for t, v_ext in enumerate(sequence):
                out.append(policy.beta("z" if t % 2 == 0 else "x", t // 2 + 1, v_ext))
            return out

        first, second = run(), run()
        assert first == second
        assert all(0.0 < b < 1.0 for b in first)

    def test_gru_policy_zero_weights(self):
        params = HyperGruParams(w_update=np.zeros((3, 3 + 12)),
                                w_reset=np.zeros((3, 15)),
                                w_cand=np.zeros((3, 15)),
                                w_out=np.zeros(3))
        policy = reset(HyperGruPolicy(params))
        for t in (1, 2, 3):
            assert policy.beta("z", t, 1.0) == 0.5

    def test_gru_policy_feature_width_check(self):
        # A spectrum of another width is resampled to the trained one.
        params = init_variant_params("hypergru", 8, 3, hidden=4, seed=16)
        sig, sqrt_snr = scenario(n=5)
        narrow, resampled = HyperGruPolicy(params), HyperGruPolicy(params)
        narrow.reset(sig, sqrt_snr)
        resampled.reset(spectrum_input(sig, 8), sqrt_snr)
        assert narrow.beta("z", 1, 1.0) == resampled.beta("z", 1, 1.0)

    def test_gru_policy_uses_variance_feature(self):
        params = init_variant_params("hypergru", 8, 3, hidden=6, seed=17)
        policy = reset(HyperGruPolicy(params))
        b_small = policy.beta("z", 1, 1e-6)
        reset(policy)
        b_large = policy.beta("z", 1, 1e6)
        assert b_small != b_large


class TestParamVector:
    @pytest.mark.parametrize("variant", hypernets.VARIANTS)
    def test_round_trip(self, variant):
        params = init_variant_params(variant, n=8, layers=5, hidden=6, heads=3,
                                     seed=18)
        vec = params_to_vector(params)
        back = params_from_vector(params, vec)
        np.testing.assert_array_equal(params_to_vector(back), vec)

    def test_tied_direct_half_size(self):
        untied = init_variant_params("net_direct", 8, 6, tied=False)
        tied = init_variant_params("net_direct", 8, 6, tied=True)
        assert params_to_vector(untied).size == 12
        assert params_to_vector(tied).size == 6

    @pytest.mark.parametrize("variant, changes", [
        ("net_direct", ({"n": 4}, {"n": 400})),
        ("hypergru", ({"layers": 3}, {"layers": 30})),
        ("hypergru_attn", ({"layers": 3}, {"layers": 30})),
        ("hypernet", ({"heads": 1, "tied": False}, {"heads": 7, "tied": True})),
    ])
    def test_family_ignores_arguments_it_does_not_read(self, variant, changes):
        base = dict(n=8, layers=5, hidden=6, heads=3, seed=19)
        one, other = (init_variant_params(variant, **{**base, **change})
                      for change in changes)
        assert type(one) is type(other)
        np.testing.assert_array_equal(params_to_vector(one), params_to_vector(other))

    def test_wrong_length_rejected(self):
        params = init_variant_params("net_direct", 8, 4)
        with pytest.raises(ValueError):
            params_from_vector(params, np.zeros(3))


class TestCheckpoints:
    @pytest.mark.parametrize("variant", hypernets.VARIANTS)
    def test_save_load_round_trip(self, variant, tmp_path):
        params = init_variant_params(variant, n=8, layers=4, hidden=5, heads=2,
                                     seed=19)
        payload = checkpoint_payload(variant, params, n=8, layers=4,
                                     metadata={"note": "test"})
        path = tmp_path / "ck.json"
        save_checkpoint(str(path), payload)
        loaded = load_checkpoint(str(path))
        assert loaded["variant"] == variant
        restored = params_from_checkpoint(loaded)
        np.testing.assert_array_equal(params_to_vector(restored),
                                      params_to_vector(params))
        policy = reset(hypernets.policy_for_params(restored))
        assert policy.beta("z", 1, 1.0) == pytest.approx(
            reset(hypernets.policy_for_params(params)).beta("z", 1, 1.0))

    def test_payload_rejects_mismatched_variant(self):
        # The label must agree with the bundle's family and attention flag,
        # or the loader would refuse the file the writer made.
        for variant in hypernets.VARIANTS:
            params = init_variant_params(variant, n=8, layers=4, hidden=5,
                                         heads=2, seed=21)
            for label in hypernets.VARIANTS:
                if label == variant:
                    checkpoint_payload(label, params, n=8, layers=4)
                    continue
                with pytest.raises(hypernets.CheckpointError, match=label):
                    checkpoint_payload(label, params, n=8, layers=4)
        with pytest.raises(hypernets.CheckpointError, match="mystery"):
            checkpoint_payload("mystery", init_variant_params("net_direct", 4, 3),
                               n=4, layers=3)

    def test_residual_form_in_header(self, tmp_path):
        # The residual form is written to the header and read back as the
        # same controller.
        params = init_variant_params("hypernet_attn", n=8, layers=4, hidden=5,
                                     heads=2, seed=19)
        payload = checkpoint_payload("hypernet_attn", params, n=8, layers=4)
        assert payload["residual"] is True
        path = tmp_path / "ck.json"
        save_checkpoint(str(path), payload)
        restored = params_from_checkpoint(load_checkpoint(str(path)))
        sig, sqrt_snr = scenario()
        s = np.concatenate([sig, [sqrt_snr]])
        np.testing.assert_array_equal(hypernet_forward(s, restored),
                                      hypernet_forward(s, params))

    def test_headerless_pure_mix_rejected(self):
        # A hypernet_attn header without the field is a v1 file of the
        # retired pure attention mix; it must not load as the residual form.
        params = init_variant_params("hypernet_attn", n=8, layers=4, hidden=5,
                                     heads=2, seed=19)
        payload = checkpoint_payload("hypernet_attn", params, n=8, layers=4)
        del payload["residual"]
        with pytest.raises(hypernets.CheckpointError, match="pure-mix"):
            params_from_checkpoint(payload)

    def test_residual_field_only_for_residual_attention(self):
        for variant in hypernets.VARIANTS:
            params = init_variant_params(variant, n=8, layers=4, hidden=5,
                                         heads=2, seed=22)
            payload = checkpoint_payload(variant, params, n=8, layers=4)
            assert ("residual" in payload) == (variant == "hypernet_attn")
            for bad in (False, 1, "yes") if variant == "hypernet_attn" else (True,):
                payload["residual"] = bad
                with pytest.raises(hypernets.CheckpointError, match="residual"):
                    params_from_checkpoint(payload)

    def test_deterministic_bytes(self, tmp_path):
        params = init_variant_params("hypernet", n=8, layers=4, hidden=5, seed=20)
        payload = checkpoint_payload("hypernet", params, n=8, layers=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(str(p1), payload)
        save_checkpoint(str(p2), payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_holds_the_indented_json_and_no_temp_remains(self, tmp_path):
        params = init_variant_params("hypergru_attn", n=8, layers=4, hidden=5, seed=21)
        payload = checkpoint_payload("hypergru_attn", params, n=8, layers=4)
        path = tmp_path / "ck.json"
        save_checkpoint(str(path), payload)
        assert path.read_text() == json.dumps(payload, indent=1, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"gecsr-checkpoint-v1\"}")
        with pytest.raises(hypernets.CheckpointError):
            load_checkpoint(str(path))

    def test_unknown_variant_rejected(self, tmp_path):
        params = init_variant_params("net_direct", 4, 3)
        payload = checkpoint_payload("net_direct", params, n=4, layers=3)
        payload["variant"] = "mystery"
        path = tmp_path / "bad.json"
        save_checkpoint(str(path), payload)
        with pytest.raises(hypernets.CheckpointError):
            load_checkpoint(str(path))
