"""Exact-gradient (reverse-mode) checks against the solver and oracles.

The adjoint forward pass must reproduce the reference solver's loss bit for
bit, and its gradients must match finite differences of the actual training
loss for every controller family, including the recurrent couplings through
the damping history and the extrinsic-variance feature.

The solver and the adjoint share each controller's forward implementation,
so losses, gradients, solver damping factors and checkpoint payloads are
also pinned to stored values (tests/golden_controllers.json).  Re-record
entries of that file only when a change to their numbers is intended:

    PYTHONPATH=src python tests/test_adjoint.py adjoint/hypernet_attn checkpoints/hypergru

rewrites only the named entries (`adjoint/<configuration>` or
`checkpoints/<variant>`) and leaves every other stored value byte for byte,
so the diff shows exactly what moved.  With no argument every entry is
re-recorded, which also moves near-zero gradient components by rounding.
"""

import json
import os
import sys

import numpy as np
import pytest

from gecsr import adjoint, hypernets, model
from gecsr.adjoint import bessel_ratio_derivative, gradient_vector, loss_and_gradient
from gecsr.hypernets import params_from_vector, params_to_vector, policy_for_params
from gecsr.model import DatasetManifest, SignalPrior
from gecsr.solver import (
    V_MAX,
    V_MIN,
    GaussianMessage,
    PolicyError,
    bessel_ratio,
    extrinsic,
    extrinsic_backward,
    gb_backward,
    gb_posterior,
    lmmse_backward,
    lmmse_posterior,
    magnitude_posterior,
    run_solver,
    spectral_init,
)
from gecsr.training import TrainerConfig, sample_loss, train

LAYERS = 4
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_controllers.json")
GOLDEN_RTOL = 1e-10


def _batch(manifest):
    out = []
    for i in range(manifest.count):
        sample = model.sample_at(manifest, i)
        out.append((sample, SignalPrior(sample.rho),
                    spectral_init(sample.y, sample.matrix)))
    return out


def _tiny_batch():
    return _batch(DatasetManifest(seed=313, count=3, m=16, n=8,
                                  matrix_class=("gaussian",),
                                  snr_db_range=(18.0, 22.0), rho_range=(0.4, 0.6)))


@pytest.fixture(scope="module")
def tiny_batch():
    return _tiny_batch()


@pytest.fixture(scope="module")
def class_batch(tiny_batch):
    """The gaussian tiny batch plus a geometric and a binary sample."""
    return tiny_batch + _batch(DatasetManifest(
        seed=317, count=2, m=16, n=8, matrix_class=("geometric", "binary"),
        gammas=(0.9,), snr_db_range=(18.0, 22.0), rho_range=(0.4, 0.6)))


def _variant_params(name):
    if name == "net_direct":
        return hypernets.init_direct_params(LAYERS)
    if name == "net_direct_tied":
        return hypernets.init_direct_params(LAYERS, tied=True)
    if name == "hypernet":
        return hypernets.init_hypernet_params(8, LAYERS, hidden=5, seed=3)
    if name == "hypernet_attn":
        return hypernets.init_hypernet_params(8, LAYERS, hidden=5, heads=3,
                                              attention=True, seed=4)
    if name == "hypergru":
        return hypernets.init_hypergru_params(8, hidden=5, seed=5)
    return hypernets.init_hypergru_params(8, hidden=5, attention=True, seed=6)


ALL_VARIANTS = ("net_direct", "net_direct_tied", "hypernet", "hypernet_attn",
                "hypergru", "hypergru_attn")


def _golden_values(batch) -> dict:
    """Per-configuration adjoint and solver outputs, plus checkpoint payloads."""
    adjoint_runs = {}
    for name in ALL_VARIANTS:
        params = _variant_params(name)
        runs = []
        for sample, prior, init in batch:
            loss, grads, _ = loss_and_gradient(sample, prior, params, LAYERS,
                                               init=init)
            trace = run_solver(sample, prior, policy_for_params(params), LAYERS,
                               init=init)
            runs.append({"loss": loss,
                         "gradient": gradient_vector(params, grads).tolist(),
                         "beta_z": trace.beta_z, "beta_x": trace.beta_x})
        adjoint_runs[name] = runs
    checkpoints = {}
    for variant in hypernets.VARIANTS:
        params = hypernets.init_variant_params(variant, n=8, layers=4, hidden=5,
                                               heads=2, seed=19)
        checkpoints[variant] = hypernets.checkpoint_payload(variant, params, n=8,
                                                            layers=4)
    return {"adjoint": adjoint_runs, "checkpoints": checkpoints}


class TestBesselDerivative:
    def test_matches_finite_differences(self):
        grid = np.array([1e-8, 1e-4, 0.1, 1.0, 5.0, 29.0, 31.0, 120.0])
        eps = 1e-6
        for k in grid:
            ratio = bessel_ratio(k)
            der = bessel_ratio_derivative(k, ratio)
            if k > eps:
                fd = (bessel_ratio(k + eps) - bessel_ratio(k - eps)) / (2 * eps)
            else:
                fd = (bessel_ratio(k + eps) - bessel_ratio(k)) / eps
            assert abs(der - fd) < 5e-5, k

    def test_limit_at_zero(self):
        assert bessel_ratio_derivative(0.0, 0.0) == pytest.approx(0.5)


class TestAdjointForward:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_loss_matches_reference_solver(self, name, class_batch):
        # Bit for bit, on every transform class.
        params = _variant_params(name)
        policy = policy_for_params(params)
        for sample, prior, init in class_batch:
            loss_adj, _, diverged = loss_and_gradient(sample, prior, params,
                                                      LAYERS, init=init)
            assert not diverged
            trace = run_solver(sample, prior, policy, LAYERS, init=init)
            assert loss_adj == sample_loss(sample.x, trace, LAYERS)

    @pytest.mark.parametrize("layers", [0, -3])
    def test_non_positive_layers_rejected(self, layers, tiny_batch):
        # As in run_solver: no layer means no loss to differentiate.
        sample, prior, init = tiny_batch[0]
        params = _variant_params("net_direct")
        with pytest.raises(ValueError, match="at least one layer"):
            loss_and_gradient(sample, prior, params, layers, init=init)
        with pytest.raises(ValueError, match="at least one layer"):
            run_solver(sample, prior, policy_for_params(params), layers, init=init)


class TestForwardMagnitude:
    """The adjoint's taped phase reconstructor against the solver's."""

    @pytest.mark.parametrize("v, y_scale, rail", [
        (0.5, 1.0, None),      # kappa on both sides of the 30 cutoff
        (1e-13, 1.0, V_MIN),   # variance clamped at the floor
        (1e8, 1e6, V_MAX),     # variance clamped at the ceiling
    ])
    def test_matches_magnitude_posterior(self, v, y_scale, rail):
        rng = np.random.default_rng(41)
        mu = model.complex_normal(rng, 64)
        mu[::7] = 0.0
        y = y_scale * np.abs(model.complex_normal(rng, 64)) * np.linspace(0.01, 40.0, 64)
        rec = {}
        mean, var = adjoint._forward_magnitude(mu, v, y, rec)
        ref_mean, ref_var = magnitude_posterior(GaussianMessage(mu, v), y)
        np.testing.assert_array_equal(mean, ref_mean)
        assert var == ref_var
        assert np.all(mean[::7] == 0.0)
        if rail is None:
            assert np.min(rec["kappa"][rec["kappa"] > 0]) < 30.0 < np.max(rec["kappa"])
        else:
            assert var == rail


class TestDivergence:
    """Both drivers of the layer recursion give up on a runaway sample."""

    @staticmethod
    def _scaled_init(init, scale):
        msg_z0, msg_x0 = init
        return (GaussianMessage(scale * msg_z0.mean, msg_z0.variance),
                GaussianMessage(scale * msg_x0.mean, msg_x0.variance))

    @pytest.mark.parametrize("name", ["net_direct", "hypergru_attn"])
    def test_overflowing_init_diverges(self, name, tiny_batch):
        params = _variant_params(name)
        sample, prior, init = tiny_batch[0]
        init = self._scaled_init(init, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run_solver(sample, prior, policy_for_params(params), LAYERS,
                               init=init)
            loss, grads, diverged = loss_and_gradient(sample, prior, params, LAYERS,
                                                      init=init, loss_clip=1e6)
        assert trace.diverged and trace.layers == 0
        assert trace.beta_z == trace.beta_x == trace.v2z == trace.v2x == []
        assert (loss, diverged) == (1e6, True)
        assert all(not np.any(g) for g in grads.values())
        assert set(grads) == {key for key, _ in hypernets._named_arrays(params)}

    def test_clipped_loss_is_not_divergence(self, tiny_batch):
        params = _variant_params("net_direct")
        sample, prior, init = tiny_batch[0]
        init = self._scaled_init(init, 1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads, diverged = loss_and_gradient(sample, prior, params, LAYERS,
                                                      init=init, loss_clip=1e6)
        assert (loss, diverged) == (1e6, False)
        assert all(not np.any(g) for g in grads.values())


def _check_directional_derivatives(params, tiny_batch):
    """Adjoint gradient against central differences along 4 directions."""
    vec = params_to_vector(params)

    def batch_loss(v):
        candidate = params_from_vector(params, v)
        total = 0.0
        for sample, prior, init in tiny_batch:
            loss, _, _ = loss_and_gradient(sample, prior, candidate,
                                           LAYERS, init=init)
            total += loss
        return total / len(tiny_batch)

    grad = np.zeros_like(vec)
    for sample, prior, init in tiny_batch:
        _, grads, _ = loss_and_gradient(sample, prior, params, LAYERS,
                                        init=init)
        grad += gradient_vector(params, grads)
    grad /= len(tiny_batch)

    rng = np.random.default_rng(11)
    for _ in range(4):
        direction = rng.standard_normal(vec.size)
        direction /= np.linalg.norm(direction)
        eps = 1e-4
        fd = (batch_loss(vec + eps * direction)
              - batch_loss(vec - eps * direction)) / (2 * eps)
        ad = float(np.dot(grad, direction))
        assert ad == pytest.approx(fd, rel=1e-4, abs=1e-8)
    return grad


class TestAdjointGradients:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_directional_derivatives(self, name, tiny_batch):
        _check_directional_derivatives(_variant_params(name), tiny_batch)

    def test_directional_derivatives_residual_attention(self, tiny_batch):
        # The residual path holds no weights; gradient still reaches the
        # net behind it and every head's mix weight.
        params = _variant_params("hypernet_attn")
        grad = params_from_vector(params,
                                  _check_directional_derivatives(params, tiny_batch))
        assert np.any(grad.w1 != 0) and np.all(grad.attention.mix != 0)

    def test_componentwise_direct(self, tiny_batch):
        params = _variant_params("net_direct")
        vec = params_to_vector(params)
        grad = np.zeros_like(vec)
        for sample, prior, init in tiny_batch:
            _, grads, _ = loss_and_gradient(sample, prior, params, LAYERS,
                                            init=init)
            grad += gradient_vector(params, grads)
        grad /= len(tiny_batch)
        eps = 1e-6
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += eps
            vm[i] -= eps
            fd_total = 0.0
            for sample, prior, init in tiny_batch:
                lp, _, _ = loss_and_gradient(sample, prior,
                                             params_from_vector(params, vp),
                                             LAYERS, init=init)
                lm, _, _ = loss_and_gradient(sample, prior,
                                             params_from_vector(params, vm),
                                             LAYERS, init=init)
                fd_total += (lp - lm) / (2 * eps)
            fd = fd_total / len(tiny_batch)
            assert grad[i] == pytest.approx(fd, rel=2e-4, abs=1e-7)


class TestEstimatorAdjoints:
    """Each estimator's adjoint against central differences of the taped
    solver function, one input at a time.

    The probe loss is L = 2 Re(c^H mean) + a * var, so the adjoint is fed
    (c, a) and must return dL/d(input*) for complex inputs (dL = 2 Re(g^H
    d input)) and dL/d(input) for real ones.
    """

    @staticmethod
    def _check(forward, backward, inputs, seed=0):
        rng = np.random.default_rng(seed)
        tape = {}
        mean, _ = forward(*inputs, tape)
        c = model.complex_normal(rng, mean.shape[0])
        a = 0.7

        def probe(args):
            m, v = forward(*args, None)
            return np.array([2.0 * float(np.real(np.vdot(c, m))), v])

        grads = backward(c, a, tape)
        assert len(grads) == len(inputs)
        for k, (value, grad) in enumerate(zip(inputs, grads)):
            if isinstance(value, np.ndarray):
                direction = model.complex_normal(rng, value.shape[0])
                h = 1e-6 * float(np.max(np.abs(value)))
                want = 2.0 * float(np.real(np.vdot(grad, direction)))
            else:
                direction, h, want = 1.0, 1e-6 * value, float(grad)
            plus, minus = list(inputs), list(inputs)
            plus[k] = value + h * direction
            minus[k] = value - h * direction
            # Mean and variance terms differenced apart: V_MAX would swamp the sum.
            fd = float(np.dot((probe(plus) - probe(minus)) / (2.0 * h), [1.0, a]))
            assert want == pytest.approx(fd, rel=1e-6, abs=1e-9 * (1.0 + abs(fd))), k
        return tape

    @staticmethod
    def _extrinsic(post_mean, post_var, pri_mean, pri_var, tape):
        msg = extrinsic(post_mean, post_var, GaussianMessage(pri_mean, pri_var), tape)
        return msg.mean, msg.variance

    def _check_extrinsic(self, post_var, pri_var, seed):
        rng = np.random.default_rng(seed)
        inputs = [np.sqrt(post_var) * model.complex_normal(rng, 6), post_var,
                  np.sqrt(pri_var) * model.complex_normal(rng, 6), pri_var]
        return self._check(self._extrinsic, extrinsic_backward, inputs, seed)

    def test_extrinsic_normal(self):
        tape = self._check_extrinsic(0.3, 1.0, seed=1)
        assert not tape["fallback"] and V_MIN < tape["v2_raw"] < V_MAX

    def test_extrinsic_raw_variance_below_floor(self):
        # v2 = 4e-12 * 1e-11 / 6e-12, under V_MIN: the mean scales with the
        # raw v2 and the clamped variance passes no gradient.
        tape = self._check_extrinsic(4e-12, 1e-11, seed=2)
        assert not tape["fallback"] and tape["v2_raw"] < V_MIN
        rng = np.random.default_rng(3)
        g_mean = model.complex_normal(rng, 6)
        with_var = extrinsic_backward(g_mean, 5.0, tape)
        without = extrinsic_backward(g_mean, 0.0, tape)
        for got, want in zip(with_var, without):
            np.testing.assert_array_equal(got, want)

    def test_extrinsic_no_information_fallback(self):
        tape = self._check_extrinsic(2.0, 1.0, seed=4)
        assert tape["fallback"]

    @pytest.mark.parametrize("output", ("x", "z"))
    def test_lmmse(self, output, tiny_batch):
        matrix = tiny_batch[0][0].matrix
        rng = np.random.default_rng(5)
        inputs = [model.complex_normal(rng, matrix.m), 0.2,
                  model.complex_normal(rng, matrix.n), 0.7]

        def forward(mz, vz, mx, vx, tape):
            return lmmse_posterior(GaussianMessage(mz, vz), GaussianMessage(mx, vx),
                                   matrix, output, tape, z_proj=matrix.project(mz))

        def backward(g_mean, g_var, tape):
            # The z mean's adjoint comes back in mode space: dL/dmu_z* = A V g.
            g_modes, g_vz, g_mx, g_vx = lmmse_backward(
                matrix, g_mean, g_var, tape, output)
            assert g_modes.shape == (matrix.n,)
            return matrix.apply_modes(g_modes), g_vz, g_mx, g_vx

        tape = self._check(forward, backward, inputs, seed=6)
        assert V_MIN < tape["var_raw"] < V_MAX

    @pytest.mark.parametrize("rho", (0.4, 1.0))
    def test_gb(self, rho):
        prior = SignalPrior(rho)
        rng = np.random.default_rng(7)
        inputs = [model.complex_normal(rng, 8), 0.3]

        def forward(r, v, tape):
            return gb_posterior(GaussianMessage(r, v), prior, tape)

        def backward(g_mean, g_var, tape):
            return gb_backward(g_mean, g_var, prior, tape)

        tape = self._check(forward, backward, inputs, seed=8)
        assert (tape["resp"] is None) == (rho == 1.0)


class TestPolicyQueries:
    def test_non_finite_factor_raises_like_the_solver(self, tiny_batch):
        params = hypernets.init_direct_params(LAYERS)
        params.logits_z[1] = np.nan
        sample, prior, init = tiny_batch[0]
        with pytest.raises(PolicyError):
            run_solver(sample, prior, policy_for_params(params), LAYERS, init=init)
        with pytest.raises(PolicyError):
            loss_and_gradient(sample, prior, params, LAYERS, init=init)


class TestAdjointTraining:
    def test_adjoint_estimator_reduces_loss(self):
        manifest = DatasetManifest(seed=51, count=8, m=16, n=8,
                                   matrix_class=("gaussian",),
                                   snr_db_range=(20.0, 20.0),
                                   rho_range=(0.5, 0.5))
        config = TrainerConfig(learning_rate=0.02, batch_size=4, epochs=8,
                               layers=4, grad_estimator="adjoint",
                               grad_clip_norm=1.0, seed=12, hidden=4)
        result = train("hypergru", manifest, config)
        assert not result.no_progress
        first = result.history[0][1]
        best = min(row[1] for row in result.history)
        assert best < first

    def test_adjoint_training_reproducible(self):
        manifest = DatasetManifest(seed=52, count=4, m=16, n=8,
                                   matrix_class=("gaussian",),
                                   snr_db_range=(20.0, 20.0),
                                   rho_range=(0.5, 0.5))
        config = TrainerConfig(learning_rate=0.02, batch_size=2, epochs=2,
                               layers=3, grad_estimator="adjoint",
                               grad_clip_norm=1.0, seed=13, hidden=4)
        r1 = train("hypernet_attn", manifest, config)
        r2 = train("hypernet_attn", manifest, config)
        assert r1.checkpoint == r2.checkpoint


class TestGolden:
    """Outputs frozen before the solver and the adjoint shared controllers."""

    @pytest.fixture(scope="class")
    def stored_and_current(self, tiny_batch):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
        return stored, _golden_values(tiny_batch)

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_adjoint_and_solver_outputs(self, name, stored_and_current):
        stored, current = stored_and_current
        for want, got in zip(stored["adjoint"][name], current["adjoint"][name],
                             strict=True):
            assert got["loss"] == pytest.approx(want["loss"], rel=GOLDEN_RTOL)
            gradient = np.asarray(want["gradient"])
            np.testing.assert_allclose(
                got["gradient"], gradient, rtol=GOLDEN_RTOL,
                atol=GOLDEN_RTOL * float(np.max(np.abs(gradient))))
            for side in ("beta_z", "beta_x"):
                np.testing.assert_allclose(got[side], want[side], rtol=GOLDEN_RTOL,
                                           atol=0.0)

    @pytest.mark.parametrize("variant", hypernets.VARIANTS)
    def test_checkpoint_payload(self, variant, stored_and_current):
        stored, current = stored_and_current
        got = json.loads(json.dumps(current["checkpoints"][variant]))
        assert got == stored["checkpoints"][variant]


if __name__ == "__main__":
    golden = _golden_values(_tiny_batch())
    if sys.argv[1:]:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
        for key in sys.argv[1:]:
            section, _, name = key.partition("/")
            if name not in stored.get(section, {}):
                sys.exit(f"no golden entry {key!r}; expected adjoint/<configuration> "
                         f"or checkpoints/<variant>")
            stored[section][name] = golden[section][name]
        golden = stored
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True)
        fh.write("\n")
    print(f"golden values -> {GOLDEN_PATH}: {', '.join(sys.argv[1:]) or 'all'}")
