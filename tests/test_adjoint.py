"""Exact-gradient (reverse-mode) checks against the solver and oracles.

The adjoint forward pass must reproduce the reference solver's loss bit for
bit, and its gradients must match finite differences of the actual training
loss for every controller family, including the recurrent couplings through
the damping history and the extrinsic-variance feature.

The solver and the adjoint share each controller's forward implementation,
so losses, gradients, solver damping factors and checkpoint payloads are
also pinned to stored values (tests/golden_controllers.json).  Regenerate
that file with `PYTHONPATH=src python tests/test_adjoint.py` only when a
change to the numbers is intended.
"""

import json
import os

import numpy as np
import pytest

from gecsr import adjoint, hypernets, model
from gecsr.adjoint import bessel_ratio_derivative, gradient_vector, loss_and_gradient
from gecsr.hypernets import params_from_vector, params_to_vector, policy_for_params
from gecsr.model import DatasetManifest, SignalPrior
from gecsr.solver import bessel_ratio, run_solver, spectral_init
from gecsr.training import TrainerConfig, sample_loss, train

LAYERS = 4
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_controllers.json")
GOLDEN_RTOL = 1e-10


def _tiny_batch():
    manifest = DatasetManifest(seed=313, count=3, m=16, n=8,
                               matrix_class=("gaussian",),
                               snr_db_range=(18.0, 22.0), rho_range=(0.4, 0.6))
    out = []
    for i in range(manifest.count):
        sample = model.sample_at(manifest, i)
        out.append((sample, SignalPrior(sample.rho),
                    spectral_init(sample.y, sample.matrix)))
    return out


@pytest.fixture(scope="module")
def tiny_batch():
    return _tiny_batch()


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
    def test_loss_matches_reference_solver(self, name, tiny_batch):
        params = _variant_params(name)
        policy = policy_for_params(params)
        for sample, prior, init in tiny_batch:
            loss_adj, _, diverged = loss_and_gradient(sample, prior, params,
                                                      LAYERS, init=init)
            assert not diverged
            trace = run_solver(sample, prior, policy, LAYERS, init=init)
            ref = sample_loss(sample.x, trace, LAYERS)
            assert loss_adj == pytest.approx(ref, rel=1e-10)


class TestAdjointGradients:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_directional_derivatives(self, name, tiny_batch):
        params = _variant_params(name)
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
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(_golden_values(_tiny_batch()), fh, sort_keys=True)
        fh.write("\n")
    print(f"golden values -> {GOLDEN_PATH}")
