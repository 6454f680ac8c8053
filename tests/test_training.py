"""Trainer tests: loss, gradient estimators, optimizer, loop, evaluation."""

import numpy as np
import pytest

from gecsr import adjoint, hypernets, model, training
from gecsr.model import DatasetManifest, SignalPrior
from gecsr.solver import SolverTrace, align_phase, constant_schedule, run_solver
from gecsr.training import (
    AdamState,
    EstimatorError,
    IncompatibleError,
    TrainerConfig,
    TrainingAborted,
    TruncatedTraceError,
    adam_step,
    evaluate,
    policy_for_evaluation,
    sample_loss,
    spsa_gradient,
    train,
)
from gradcheck import central_diff_gradient, grad_check

RECURRENT = [v for v, (family, _) in hypernets.VARIANTS.items()
             if family is hypernets.HyperGruParams]
STATIC = [v for v in hypernets.VARIANTS if v not in RECURRENT]

TINY = dict(m=16, n=8, matrix_class=("gaussian",), snr_db_range=(20.0, 20.0),
            rho_range=(0.5, 0.5))


def tiny_manifest(seed=50, count=4, **kw) -> DatasetManifest:
    merged = dict(TINY)
    merged.update(kw)
    return DatasetManifest(seed=seed, count=count, **merged)


def _trace_with(x_list) -> SolverTrace:
    trace = SolverTrace()
    for est in x_list:
        trace.x_means.append(est)
        trace.nmse_db.append(0.0)
    return trace


class TestMultiLayerLoss:
    """sample_loss: the phase-aligned squared error summed over layers."""

    def test_perfect_reconstruction(self):
        x = np.array([1.0 + 1j, -2.0])
        assert sample_loss(x, _trace_with([x.copy(), x.copy()]), 2) == 0.0

    def test_global_phase_ignored(self):
        rng = np.random.default_rng(0)
        x = model.complex_normal(rng, 8)
        rotated = [np.exp(1j * 0.9) * x, np.exp(-2.2j) * x]
        assert sample_loss(x, _trace_with(rotated), 2) < 1e-18

    def test_orthogonal_estimate(self):
        x = np.array([1.0 + 0j, 0.0])
        est = np.array([0.0j, 1.0])
        np.testing.assert_allclose(sample_loss(x, _trace_with([est]), 1), 2.0)

    def test_batch_mean_and_layers(self):
        x1 = np.array([1.0 + 0j])
        x2 = np.array([2.0 + 0j])
        trace = _trace_with([np.zeros(1, complex)] * 2)
        # Each layer adds its own error; only the first `layers` count.
        np.testing.assert_allclose([sample_loss(x1, trace, 1), sample_loss(x1, trace, 2)],
                                   [1.0, 2.0])
        np.testing.assert_allclose([sample_loss(x1, trace, 2), sample_loss(x2, trace, 2)],
                                   [2.0, 8.0])

    def test_truncated_trace_rejected(self):
        x = np.array([1.0 + 0j])
        with pytest.raises(TruncatedTraceError):
            sample_loss(x, _trace_with([x]), 2)


class TestSpsaGradient:
    def test_quadratic_componentwise(self):
        rng = np.random.default_rng(1)
        theta = np.array([1.0, -2.0])
        est = spsa_gradient(lambda t: float(np.sum(t**2)), theta, pairs=256,
                            perturbation=1e-3, rng=rng)
        np.testing.assert_allclose(est.gradient, [2.0, -4.0], rtol=0.1)

    def test_constant_loss_zero_estimate(self):
        rng = np.random.default_rng(2)
        est = spsa_gradient(lambda t: 3.25, np.ones(6), pairs=4,
                            perturbation=0.05, rng=rng)
        np.testing.assert_array_equal(est.gradient, np.zeros(6))

    def test_cosine_against_central_difference(self):
        rng = np.random.default_rng(3)
        scales = rng.uniform(0.5, 2.0, 20)
        fn = lambda t: float(np.sum(scales * t**2))
        theta = rng.normal(size=20)
        est = spsa_gradient(fn, theta, pairs=64, perturbation=1e-4, rng=rng)
        ref = central_diff_gradient(fn, theta, 1e-4)
        cos = np.dot(est.gradient, ref) / (np.linalg.norm(est.gradient)
                                           * np.linalg.norm(ref))
        assert cos >= 0.7

    def test_error_decreases_with_pairs(self):
        rng = np.random.default_rng(4)
        scales = rng.uniform(0.5, 2.0, 12)
        fn = lambda t: float(np.sum(scales * t**2))
        theta = rng.normal(size=12)
        exact = 2.0 * scales * theta
        errors = []
        for pairs in (8, 64, 512):
            est = spsa_gradient(fn, theta, pairs, 1e-4,
                                np.random.default_rng(100))
            errors.append(np.linalg.norm(est.gradient - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EstimatorError) as info:
            spsa_gradient(lambda t: float("nan"), np.ones(3), 2, 0.05, rng)
        assert info.value.theta is not None

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            spsa_gradient(lambda t: 0.0, np.ones(2), 0, 0.05, rng)
        with pytest.raises(ValueError):
            spsa_gradient(lambda t: 0.0, np.ones(2), 4, 0.0, rng)


class TestAdam:
    def test_zero_gradient_keeps_theta(self):
        theta = np.array([1.0, -1.0])
        out, state = adam_step(theta, np.zeros(2), AdamState.fresh(2),
                               TrainerConfig())
        np.testing.assert_array_equal(out, theta)
        assert state.step == 1

    def test_first_step_magnitude(self):
        config = TrainerConfig(learning_rate=0.05)
        out, _ = adam_step(np.array([0.0]), np.array([1.0]),
                           AdamState.fresh(1), config)
        np.testing.assert_allclose(out, [-0.05], rtol=1e-6)

    def test_moments_round_trip_resumes_identically(self):
        config = TrainerConfig(learning_rate=0.02)
        rng = np.random.default_rng(7)
        theta = rng.normal(size=4)
        state = AdamState.fresh(4)
        for _ in range(3):
            theta, state = adam_step(theta, rng.normal(size=4), state, config)
        blob = {"m": state.m.tolist(), "v": state.v.tolist(), "step": state.step}
        revived = AdamState(m=np.asarray(blob["m"]), v=np.asarray(blob["v"]),
                            step=blob["step"])
        grad = rng.normal(size=4)
        a1, _ = adam_step(theta, grad, state, config)
        a2, _ = adam_step(theta, grad, revived, config)
        np.testing.assert_array_equal(a1, a2)


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        manifest = tiny_manifest()
        config = TrainerConfig(epochs=0, batch_size=2, layers=3, seed=9)
        result = train("net_direct", manifest, config)
        init = hypernets.init_direct_params(3)
        np.testing.assert_array_equal(
            hypernets.params_to_vector(result.params),
            hypernets.params_to_vector(init))
        assert result.history == []

    def test_reproducible_checkpoints(self):
        manifest = tiny_manifest(count=4)
        config = TrainerConfig(epochs=2, batch_size=2, layers=3, grad_pairs=2,
                               seed=11, hidden=4)
        r1 = train("hypergru", manifest, config)
        r2 = train("hypergru", manifest, config)
        assert r1.checkpoint == r2.checkpoint
        assert r1.history == r2.history

    def test_training_reduces_loss_on_tiny_scenario(self):
        manifest = tiny_manifest(seed=51, count=8)
        config = TrainerConfig(epochs=6, batch_size=4, layers=4, grad_pairs=2,
                               seed=12, learning_rate=0.1)
        result = train("net_direct", manifest, config)
        assert not result.no_progress

    def test_history_rows_and_metadata(self):
        manifest = tiny_manifest(count=4)
        config = TrainerConfig(epochs=1, batch_size=2, layers=2, grad_pairs=1,
                               seed=13, hidden=4)
        result = train("hypernet", manifest, config)
        assert len(result.history) == 2
        step, loss, moving = result.history[0]
        assert step == 0 and loss > 0 and moving == loss
        assert result.checkpoint["metadata"]["train_manifest_hash"] == manifest.hash()
        # Nothing reads Adam moments back, so checkpoints do not carry them.
        assert "optimizer" not in result.checkpoint

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            train("mystery", tiny_manifest(), TrainerConfig(epochs=0))

    def test_manifest_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            train("net_direct", tiny_manifest(count=1),
                  TrainerConfig(epochs=1, batch_size=8))

    @pytest.mark.parametrize("estimator", ["spsa", "adjoint"])
    @pytest.mark.parametrize("n_bad", [2, 3])
    def test_divergent_samples_charged_the_clip_or_abort(self, monkeypatch, estimator,
                                                        n_bad):
        # Both estimators share one batch loop: a divergent sample costs the
        # clip, and more than abort_fraction (0.5) of a batch aborts training.
        manifest = tiny_manifest(seed=61, count=4)
        bad = {model.sample_at(manifest, i).x.tobytes() for i in range(n_bad)}
        solve, differentiate = training.run_solver, adjoint.loss_and_gradient

        def diverging_solve(sample, *args, **kwargs):
            trace = solve(sample, *args, **kwargs)
            trace.diverged |= sample.x.tobytes() in bad
            return trace

        def diverging_gradient(sample, *args, **kwargs):
            loss, grads, diverged = differentiate(sample, *args, **kwargs)
            if sample.x.tobytes() in bad:
                zero = {key: np.zeros_like(g) for key, g in grads.items()}
                return kwargs["loss_clip"], zero, True
            return loss, grads, diverged

        monkeypatch.setattr(training, "run_solver", diverging_solve)
        monkeypatch.setattr(adjoint, "loss_and_gradient", diverging_gradient)
        config = TrainerConfig(epochs=1, batch_size=4, layers=2, grad_pairs=1,
                               grad_estimator=estimator, loss_clip=1e3, seed=3)
        if n_bad > 2:
            with pytest.raises(TrainingAborted, match="3/4"):
                train("net_direct", manifest, config)
            return
        history = train("net_direct", manifest, config).history
        assert len(history) == 1 and 0.5e3 <= history[0][1] < 1e3

    @pytest.mark.parametrize("rising", [True, False])
    def test_no_progress_compares_first_and_last_ten_steps(self, monkeypatch, rising):
        calls = []

        def scripted_loss(x_true, trace, layers):
            calls.append(None)
            return float(len(calls) if rising else 1e3 - len(calls))

        monkeypatch.setattr(training, "sample_loss", scripted_loss)
        config = TrainerConfig(epochs=12, batch_size=4, layers=2, grad_pairs=1, seed=3)
        result = train("net_direct", tiny_manifest(seed=62, count=4), config)
        assert len(result.history) == 12
        assert result.no_progress == rising


class TestSampleCache:
    def test_entry_holds_one_economy_factorization(self):
        # Every complex array reachable from the cached transform, counted
        # once per buffer: the M x N operator and the N x N unitary, no
        # left singular vectors and no adjoint copies.
        manifest = tiny_manifest(count=1, m=24, n=6)
        sample, _, _ = training._SampleCache(manifest).get(0)
        buffers = {}
        for value in vars(sample.matrix).values():
            for arr in (value if isinstance(value, tuple) else (value,)):
                if isinstance(arr, np.ndarray) and np.iscomplexobj(arr):
                    owner = arr if arr.base is None else arr.base
                    buffers[id(owner)] = owner
        assert sum(a.size for a in buffers.values()) == 24 * 6 + 6 * 6

    def test_entry_matches_fresh_sample(self):
        manifest = tiny_manifest(count=2)
        sample, _, _ = training._SampleCache(manifest).get(1)
        fresh = model.sample_at(manifest, 1)
        np.testing.assert_array_equal(sample.y, fresh.y)
        np.testing.assert_array_equal(sample.matrix.operator, fresh.matrix.operator)

    def test_capped_cache_trains_the_same_checkpoint(self, monkeypatch):
        manifest = tiny_manifest(seed=54, count=4)
        config = TrainerConfig(epochs=2, batch_size=2, layers=3, grad_pairs=2,
                               seed=14, hidden=4)
        uncapped = train("hypergru", manifest, config)
        drawn = []
        sample_at = model.sample_at
        monkeypatch.setattr(model, "sample_at",
                            lambda m, i: drawn.append(i) or sample_at(m, i))
        # One byte: nothing is kept, so each step draws its batch once and
        # its SPSA evaluations reuse it.
        monkeypatch.setattr(training, "SAMPLE_CACHE_BYTES", 1)
        capped = train("hypergru", manifest, config)
        assert len(drawn) == config.epochs * manifest.count
        assert capped.checkpoint == uncapped.checkpoint
        assert capped.history == uncapped.history

    def test_full_cache_keeps_its_first_samples(self, monkeypatch):
        # A cap of 4 samples on a 6-sample manifest: the first epoch draws
        # all 6 and keeps 0-3; each later epoch redraws only 4 and 5.
        manifest = tiny_manifest(seed=57, count=6)
        config = TrainerConfig(epochs=3, batch_size=2, layers=3, grad_pairs=2,
                               seed=15, hidden=4)
        uncapped = train("hypergru", manifest, config)
        cache = training._SampleCache(manifest)
        cache.get(0)
        monkeypatch.setattr(training, "SAMPLE_CACHE_BYTES", 4 * cache._bytes)
        drawn = []
        sample_at = model.sample_at
        monkeypatch.setattr(model, "sample_at",
                            lambda m, i: drawn.append(i) or sample_at(m, i))
        capped = train("hypergru", manifest, config)
        assert drawn == [0, 1, 2, 3, 4, 5, 4, 5, 4, 5]
        assert capped.checkpoint == uncapped.checkpoint
        assert capped.history == uncapped.history


class TestEvaluate:
    def test_single_layer_curve(self):
        manifest = tiny_manifest(seed=52, count=3)
        result = evaluate(constant_schedule(0.5), manifest, layers=1)
        assert result.nmse_db.shape == (3, 1)
        assert result.mean_db.shape == (1,)

    def test_deterministic(self):
        manifest = tiny_manifest(seed=53, count=3)
        r1 = evaluate(constant_schedule(0.8), manifest, layers=4)
        r2 = evaluate(constant_schedule(0.8), manifest, layers=4)
        np.testing.assert_array_equal(r1.nmse_db, r2.nmse_db)

    def test_checkpoint_n_mismatch_rejected(self):
        params = hypernets.init_hypernet_params(6, layers=3, hidden=4, seed=14)
        payload = hypernets.checkpoint_payload("hypernet", params, n=6, layers=3)
        with pytest.raises(IncompatibleError):
            evaluate(payload, tiny_manifest(), layers=3)

    @pytest.mark.parametrize("variant", STATIC)
    def test_static_extension_uses_half_beyond_trained_depth(self, variant):
        params = hypernets.init_variant_params(variant, n=8, layers=2, hidden=4,
                                               heads=2, seed=14)
        payload = hypernets.checkpoint_payload(variant, params, n=8, layers=2)
        policy = policy_for_evaluation(payload, n=8)
        assert type(policy) is type(hypernets.policy_for_params(params))
        assert policy.beta("z", 3, None) == 0.5
        assert policy.beta("x", 5, None) == 0.5
        result = evaluate(payload, tiny_manifest(seed=54, count=2), layers=5)
        assert np.all(np.isfinite(result.nmse_db))

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_recurrent_extends_natively(self, variant):
        params = hypernets.init_variant_params(variant, n=8, layers=2, hidden=4,
                                               seed=15)
        payload = hypernets.checkpoint_payload(variant, params, n=8, layers=2)
        policy = policy_for_evaluation(payload, n=8)
        assert type(policy) is hypernets.HyperGruPolicy
        manifest = tiny_manifest(seed=54, count=2)
        result = evaluate(payload, manifest, layers=6)
        assert result.nmse_db.shape == (2, 6)
        assert np.all(np.isfinite(result.nmse_db))

    def test_checkpoint_round_trip_reproduces_curves(self, tmp_path):
        manifest = tiny_manifest(seed=55, count=3)
        params = hypernets.init_hypergru_params(8, hidden=4, seed=16)
        payload = hypernets.checkpoint_payload("hypergru", params, n=8, layers=3)
        before = evaluate(payload, manifest, layers=3)
        path = tmp_path / "ck.json"
        hypernets.save_checkpoint(str(path), payload)
        after = evaluate(hypernets.load_checkpoint(str(path)), manifest, layers=3)
        np.testing.assert_array_equal(before.nmse_db, after.nmse_db)


class TestGradCheck:
    def test_reports_meet_thresholds(self):
        report = grad_check(pairs=64, perturbation=1e-3, seed=1)
        assert report.quadratic_cosine >= 0.99
        assert report.end_to_end_cosine >= 0.5

    def test_rejects_zero_perturbation(self):
        with pytest.raises(ValueError):
            grad_check(perturbation=0.0)


class TestTrainerConfig:
    def test_round_trip(self):
        config = TrainerConfig(learning_rate=0.01, batch_size=5, tied=True)
        again = TrainerConfig.from_dict(config.to_dict())
        assert again == config

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "layers", "grad_pairs",
                                       "seed", "hidden", "heads"])
    def test_integer_fields_refuse_booleans_and_fractions(self, field):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=field):
                TrainerConfig(**{field: value})
        whole = TrainerConfig(**{field: 3.0})
        assert type(getattr(whole, field)) is int and whole == TrainerConfig(**{field: 3})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TrainerConfig.from_dict({"momentum": 0.9})

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        for estimator in ("finite", "central_diff"):
            with pytest.raises(ValueError, match="estimator"):
                TrainerConfig(grad_estimator=estimator)
        with pytest.raises(ValueError, match="optimizer"):
            TrainerConfig(optimizer="sgd")

    @pytest.mark.parametrize("estimator", ["spsa", "adjoint"])
    def test_rejects_non_positive_layers(self, estimator):
        for layers in (0, -3):
            with pytest.raises(ValueError, match="layers"):
                TrainerConfig(layers=layers, grad_estimator=estimator)
        assert TrainerConfig(layers=1, grad_estimator=estimator).layers == 1


class TestFeatureResample:
    """The controllers resample a spectrum of another width themselves."""

    @staticmethod
    def _scenario(spectrum, sqrt_snr=10.0):
        return spectrum / np.linalg.norm(spectrum), sqrt_snr

    @staticmethod
    def _first_beta(policy, scenario):
        policy.reset(*scenario)
        return policy.beta("z", 1, 1.0)

    def test_resampled_width_reaches_base(self):
        # Both spectrum readers see the linear resampling at the trained
        # width, renormalized to unit norm.
        rng = np.random.default_rng(22)
        wide = self._scenario(np.sort(rng.random(20))[::-1])
        shape = np.interp(np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 20),
                          wide[0])
        narrow = self._scenario(shape)
        np.testing.assert_array_equal(hypernets.spectrum_input(wide[0], 8),
                                      narrow[0])
        gru = hypernets.init_hypergru_params(8, hidden=4, seed=21)
        static = hypernets.init_hypernet_params(8, layers=3, hidden=4, seed=21)
        for params in (gru, static):
            got = self._first_beta(hypernets.policy_for_params(params), wide)
            assert 0.0 < got < 1.0
            assert got == self._first_beta(hypernets.policy_for_params(params), narrow)

    def test_identity_when_widths_match(self):
        rng = np.random.default_rng(24)
        sigma_tilde, sqrt_snr = self._scenario(np.sort(rng.random(8))[::-1], sqrt_snr=5.0)
        assert hypernets.spectrum_input(sigma_tilde, 8) is sigma_tilde
        params = hypernets.init_hypernet_params(8, layers=3, hidden=4, seed=23)
        s = np.concatenate([sigma_tilde, [sqrt_snr]])
        policy = hypernets.StaticHyperNetPolicy(params)
        assert (self._first_beta(policy, (sigma_tilde, sqrt_snr))
                == hypernets.hypernet_forward(s, params)[0])

    def test_reused_policy_matches_fresh_policies(self):
        # Two spectra queried through one policy must each be resampled, as
        # fresh policies do, even when the second spectrum takes over
        # the memory (and so the id()) of the freed first.
        params = hypernets.init_hypergru_params(8, hidden=4, seed=27)
        rng = np.random.default_rng(28)
        spectra = [np.sort(rng.random(20))[::-1] for _ in range(2)]
        shared = hypernets.HyperGruPolicy(params)
        got = []
        for spectrum in spectra:
            got.append(self._first_beta(shared, self._scenario(spectrum)))
        want = [self._first_beta(hypernets.HyperGruPolicy(params), self._scenario(spectrum))
                for spectrum in spectra]
        assert got == want


class TestTrainedHypernetSensitivity:
    def test_two_snr_manifest_yields_distinct_schedules(self):
        # A static controller trained across an SNR range must emit
        # different damping schedules at the two ends of that range.
        from gecsr.hypernets import hypernet_forward

        manifest = tiny_manifest(seed=56, count=8, snr_db_range=(14.0, 26.0))
        config = TrainerConfig(learning_rate=0.05, batch_size=4, epochs=16,
                               layers=4, grad_estimator="adjoint",
                               grad_clip_norm=1.0, seed=25, hidden=6)
        result = train("hypernet", manifest, config)
        rng = np.random.default_rng(26)
        sig = np.sort(rng.random(8))[::-1]
        shape = sig / np.linalg.norm(sig)
        lo = hypernet_forward(np.concatenate([shape, [np.sqrt(10**1.4)]]),
                              result.params)
        hi = hypernet_forward(np.concatenate([shape, [np.sqrt(10**2.6)]]),
                              result.params)
        assert not np.allclose(lo, hi)
