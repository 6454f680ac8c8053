"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 3..7 use the
desk-scale controllers trained by the conftest fixtures (cached under
tests/.acceptance_cache between runs).
"""

import time

import numpy as np
import pytest

import conftest
from gecsr import hypernets, model
from gecsr.hypernets import hypernet_forward, params_from_checkpoint
from gecsr.model import DatasetManifest, SignalPrior, gaussian_matrix
from gecsr.solver import (
    V_MAX,
    V_MIN,
    GaussianMessage,
    align_phase,
    constant_schedule,
    damp,
    extrinsic,
    gb_posterior,
    geometric_schedule,
    lmmse_posterior,
    magnitude_posterior,
    run_solver,
)
from gecsr.training import evaluate, policy_for_evaluation, sample_loss
from gradcheck import grad_check
from test_solver import (
    _small_sample,
    gb_posterior_quadrature,
    lmmse_dense,
    phase_posterior_quadrature,
)

pytestmark = pytest.mark.acceptance


def record(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def baseline_matched():
    start = time.monotonic()
    result = evaluate(geometric_schedule(0.9), conftest.TEST_MATCHED, layers=30)
    result.elapsed_seconds = time.monotonic() - start
    return result


@pytest.fixture(scope="module")
def net_direct_matched(net_direct_ckpt):
    return evaluate(net_direct_ckpt, conftest.TEST_MATCHED, layers=10)


@pytest.fixture(scope="module")
def net_direct_snr30(net_direct_ckpt):
    return evaluate(net_direct_ckpt, conftest.TEST_SNR30, layers=10)


@pytest.fixture(scope="module")
def hypergru_snr30(hypergru_attn_ckpt):
    return evaluate(hypergru_attn_ckpt, conftest.TEST_SNR30, layers=10)


def test_criterion_1_estimator_oracles():
    start = time.monotonic()
    worst = 0.0
    for y in (0.0, 0.1, 1.0, 5.0, 20.0):
        for mu in (0.0, 0.5, 2.0, 10.0):
            for v in (0.01, 0.5, 1.0, 10.0):
                ref_mean, ref_var = phase_posterior_quadrature(y, mu, v)
                mean, var = magnitude_posterior(
                    GaussianMessage(np.array([mu + 0j]), v), np.array([y]))
                err = max(abs(mean[0].real - ref_mean) / (abs(ref_mean) + 1e-9),
                          abs(var - ref_var) / abs(ref_var))
                worst = max(worst, err)
    assert worst <= 1e-6, f"phase-reconstructor oracle error {worst:.2e}"

    worst_c = 0.0
    for rho in (0.3, 0.5, 1.0):
        for r in (0.0, 0.5, 2.0, 10.0):
            for v in (0.01, 0.5, 1.0, 10.0):
                ref_mean, ref_var = gb_posterior_quadrature(r, v, rho)
                mean, var = gb_posterior(GaussianMessage(np.array([r + 0j]), v),
                                         SignalPrior(rho))
                err = max(abs(mean[0].real - ref_mean) / (abs(ref_mean) + 1e-9),
                          abs(var - ref_var) / abs(ref_var))
                worst_c = max(worst_c, err)
    assert worst_c <= 1e-6, f"denoiser oracle error {worst_c:.2e}"

    worst_b = 0.0
    for seed in range(50):
        rng = np.random.default_rng([8301, seed])
        mat = gaussian_matrix(12, 5, float(rng.uniform(0.5, 50.0)), rng)
        mu_z = model.complex_normal(rng, 12)
        mu_x = model.complex_normal(rng, 5)
        vz = float(rng.uniform(0.05, 5.0))
        vx = float(rng.uniform(0.05, 5.0))
        x_ref, vx_ref, z_ref, vz_ref = lmmse_dense(mu_z, vz, mu_x, vx, mat.operator)
        z_proj = mat.project(mu_z)
        got_x, got_vx = lmmse_posterior(GaussianMessage(mu_z, vz),
                                        GaussianMessage(mu_x, vx), mat, "x",
                                        z_proj=z_proj)
        got_z, got_vz = lmmse_posterior(GaussianMessage(mu_z, vz),
                                        GaussianMessage(mu_x, vx), mat, "z",
                                        z_proj=z_proj)
        worst_b = max(worst_b,
                      float(np.max(np.abs(got_x - x_ref))), abs(got_vx - vx_ref),
                      float(np.max(np.abs(got_z - z_ref))), abs(got_vz - vz_ref))
    assert worst_b <= 1e-9, f"linear-reconstructor error {worst_b:.2e}"

    elapsed = time.monotonic() - start
    record(1, elapsed < 120.0,
           f"oracle errors A={worst:.1e} C={worst_c:.1e} B={worst_b:.1e}, "
           f"{elapsed:.0f}s (< 120s)")


def test_criterion_2_baseline_convergence(baseline_matched):
    med30 = float(baseline_matched.median_db[29])
    elapsed = baseline_matched.elapsed_seconds
    ok = med30 <= -18.0 and elapsed < 600.0
    record(2, ok, f"schedule 0.9^t median NMSE at t=30: {med30:.2f} dB "
                  f"(<= -18 dB required), evaluated in {elapsed:.0f}s (< 600s)")


def test_criterion_3_learned_damping_speedup(baseline_matched, net_direct_ckpt,
                                             net_direct_matched):
    train_seconds = net_direct_ckpt["metadata"].get("train_seconds")
    base_t5 = float(baseline_matched.median_db[4])
    base_t30 = float(baseline_matched.median_db[29])
    net_t5 = float(net_direct_matched.median_db[4])
    net_t10 = float(net_direct_matched.median_db[9])
    ok_speed = net_t5 < base_t5
    ok_level = net_t10 <= base_t30 + 1.0
    ok_budget = train_seconds is None or train_seconds < 1800.0
    record(3, ok_speed and ok_level and ok_budget,
           f"net_direct t5 {net_t5:.2f} vs baseline t5 {base_t5:.2f}; "
           f"net_direct t10 {net_t10:.2f} vs baseline t30+1 {base_t30 + 1.0:.2f}; "
           f"training {train_seconds and f'{train_seconds:.0f}s' or 'cached'}")


def test_criterion_4_hypernetwork_adaptivity(hypergru_snr30, net_direct_snr30):
    diverged = int(np.sum(hypergru_snr30.diverged))
    final = hypergru_snr30.nmse_db[:, -1]
    init = hypergru_snr30.init_nmse_db
    improved = float(np.mean(final <= init))
    gru_t5 = float(hypergru_snr30.median_db[4])
    net_t5 = float(net_direct_snr30.median_db[4])
    ok = diverged == 0 and improved >= 0.95 and gru_t5 <= net_t5
    record(4, ok, f"diverged={diverged}, improved-vs-init {improved:.0%} "
                  f"(>= 95%), hypergru_attn t5 {gru_t5:.2f} <= net_direct t5 "
                  f"{net_t5:.2f} at SNR 30 dB")


def test_criterion_5_attention_sensitivity(hypernet_ckpt, hypernet_attn_ckpt):
    params_plain = params_from_checkpoint(hypernet_ckpt)
    params_attn = params_from_checkpoint(hypernet_attn_ckpt)
    sqrt_lo = np.sqrt(10.0 ** (10.0 / 10.0))
    sqrt_hi = np.sqrt(10.0 ** (30.0 / 10.0))
    gaps_plain, gaps_attn = [], []
    for draw in range(20):
        rng = np.random.default_rng([8401, draw])
        # The normalized spectrum shape is SNR-invariant: one draw serves
        # both working points.
        sigma = model.gaussian_class_singulars(400, 100, rng)
        shape = sigma / np.linalg.norm(sigma)
        s_lo = np.concatenate([shape, [sqrt_lo]])
        s_hi = np.concatenate([shape, [sqrt_hi]])
        gaps_plain.append(float(np.max(np.abs(
            hypernet_forward(s_lo, params_plain) - hypernet_forward(s_hi, params_plain)))))
        gaps_attn.append(float(np.max(np.abs(
            hypernet_forward(s_lo, params_attn) - hypernet_forward(s_hi, params_attn)))))
    mean_plain = float(np.mean(gaps_plain))
    mean_attn = float(np.mean(gaps_attn))
    record(5, mean_attn > mean_plain,
           f"mean L-inf damping gap SNR 10 vs 30 dB: attention {mean_attn:.4f} "
           f"> plain {mean_plain:.4f} over 20 matched draws")


def test_criterion_6_layer_extensibility(hypergru_attn_ckpt, hypernet_ckpt,
                                         net_direct_ckpt):
    results = {}
    for name, ckpt in (("hypergru_attn", hypergru_attn_ckpt),
                       ("hypernet", hypernet_ckpt),
                       ("net_direct", net_direct_ckpt)):
        res = evaluate(ckpt, conftest.TEST_BINARY, layers=30)
        results[name] = res
        assert np.all(np.isfinite(res.nmse_db)), f"{name} produced non-finite curve"
    # Fixed-depth variants must be padded with beta = 0.5 beyond layer 10.
    for name, ckpt in (("hypernet", hypernet_ckpt), ("net_direct", net_direct_ckpt)):
        policy = policy_for_evaluation(ckpt, n=100)
        assert policy.beta("z", 11, None) == 0.5
        assert policy.beta("x", 30, None) == 0.5
    # The recurrent controller runs natively (no padding wrapper).
    native = policy_for_evaluation(hypergru_attn_ckpt, n=100)
    assert type(native) is hypernets.HyperGruPolicy
    finals = {name: float(res.median_db[-1]) for name, res in results.items()}
    record(6, True, "finite 30-layer curves on binary matrices at 50 dB: "
           + ", ".join(f"{k} {v:.1f} dB" for k, v in sorted(finals.items())))


def test_criterion_7_measurement_ratio_ordering(hypergru_attn_ckpt):
    grid = (2.0, 2.5, 3.0, 4.0)
    gru_reach, base_reach = np.inf, np.inf
    details = []
    for k, ratio in enumerate(grid):
        manifest = DatasetManifest(seed=8501 + k, count=48, m=int(np.ceil(ratio * 100)),
                                   n=100, matrix_class=("gaussian",),
                                   snr_db_range=(30.0, 30.0), rho_range=(0.5, 0.5))
        gru = evaluate(hypergru_attn_ckpt, manifest, layers=10)
        base = evaluate(geometric_schedule(0.9), manifest, layers=10)
        gru_final = float(gru.median_db[-1])
        base_final = float(base.median_db[-1])
        details.append(f"R={ratio:g}: gru {gru_final:.1f}, base {base_final:.1f}")
        if gru_final <= -15.0:
            gru_reach = min(gru_reach, ratio)
        if base_final <= -15.0:
            base_reach = min(base_reach, ratio)
    record(7, gru_reach <= base_reach,
           f"smallest R reaching -15 dB: hypergru_attn {gru_reach} <= "
           f"baseline {base_reach} ({'; '.join(details)})")


def test_criterion_8_invariant_suites():
    failures = []

    # Message-variance clamping through a full solver run.
    sample = _small_sample(81, m=48, n=12)
    trace = run_solver(sample, constant_schedule(0.0), 10)
    if not all(V_MIN <= v <= V_MAX for v in trace.v2z + trace.v2x):
        failures.append("variance clamp")

    # Extrinsic / Gaussian-product round trip.
    rng = np.random.default_rng(82)
    for _ in range(20):
        prior = GaussianMessage(model.complex_normal(rng, 3), float(rng.uniform(1, 3)))
        post_mean = model.complex_normal(rng, 3)
        post_var = float(rng.uniform(0.05, 0.5))
        ext = extrinsic(post_mean, post_var, prior)
        v_back = 1.0 / (1.0 / ext.variance + 1.0 / prior.variance)
        mu_back = v_back * (ext.mean / ext.variance + prior.mean / prior.variance)
        if not (np.allclose(mu_back, post_mean, rtol=1e-9)
                and np.isclose(v_back, post_var, rtol=1e-9)):
            failures.append("extrinsic round trip")
            break

    # Damping endpoints.
    cur = (np.array([2.0 + 0j]), 1.0)
    prev = (np.array([-1.0 + 0j]), 3.0)
    if not (np.array_equal(damp(cur, prev, 0.0)[0], cur[0])
            and np.array_equal(damp(cur, prev, 1.0)[0], prev[0])):
        failures.append("damp endpoints")

    # Phase alignment is the 360-point grid minimizer.
    x = model.complex_normal(rng, 10)
    est = model.complex_normal(rng, 10)
    best = np.linalg.norm(x - align_phase(x, est))
    grid = min(np.linalg.norm(x - np.exp(1j * th) * est)
               for th in np.linspace(0, 2 * np.pi, 360, endpoint=False))
    if best > grid + 1e-12:
        failures.append("align optimality")

    # Attention rows are stochastic.
    head = hypernets.AttentionHead(rng.normal(size=(7, 7)), rng.normal(size=(7, 7)))
    s = rng.normal(size=7)
    b, c = head.w_b @ s, head.w_c @ s
    logits = np.outer(b, c) / np.sqrt(7)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    if not (np.allclose(w.sum(axis=1), 1.0, atol=1e-12) and np.all(w > 0)):
        failures.append("attention stochasticity")

    # GRU state bounds and sigmoid-range damping factors.
    params = hypernets.init_variant_params("hypergru", 6, 30, hidden=5, seed=83)
    state = np.zeros(5)
    for _ in range(30):
        state, beta = hypernets.gru_step(state, rng.normal(size=10), params)
        if not (np.all(np.abs(state) < 1.0) and 0.0 < beta < 1.0):
            failures.append("gru bounds")
            break

    # Loss is invariant to a global phase on every layer estimate.
    x = model.complex_normal(rng, 6)
    from gecsr.solver import SolverTrace
    tr_a, tr_b = SolverTrace(), SolverTrace()
    for t in range(3):
        est = model.complex_normal(rng, 6)
        tr_a.x_means.append(est)
        tr_b.x_means.append(np.exp(1.3j) * est)
    la = sample_loss(x, tr_a, 3)
    lb = sample_loss(x, tr_b, 3)
    if abs(la - lb) > 1e-9 * max(la, 1.0):
        failures.append("loss phase invariance")

    # Checkpoint round trip.
    params = hypernets.init_variant_params("hypergru_attn", n=6, layers=3, hidden=4)
    payload = hypernets.checkpoint_payload("hypergru_attn", params, n=6, layers=3)
    back = hypernets.params_from_checkpoint(payload)
    if not np.array_equal(hypernets.params_to_vector(back),
                          hypernets.params_to_vector(params)):
        failures.append("checkpoint round trip")

    # Manifest determinism.
    manifest = DatasetManifest(seed=84, count=3, m=12, n=4,
                               snr_db_range=(18.0, 22.0), rho_range=(0.4, 0.6))
    a = [model.sample_at(manifest, i) for i in range(3)]
    b = [model.sample_at(manifest, i) for i in range(3)]
    if not all(np.array_equal(s.x, t.x) and np.array_equal(s.y, t.y)
               for s, t in zip(a, b)):
        failures.append("manifest determinism")

    record(8, not failures, "invariant suites all pass" if not failures
           else f"failed: {', '.join(failures)}")


def test_criterion_9_gradient_estimator_quality():
    report = grad_check(pairs=64, perturbation=1e-3, seed=3)
    ok = report.quadratic_cosine >= 0.99 and report.end_to_end_cosine >= 0.5
    record(9, ok, f"cosine quadratic {report.quadratic_cosine:.3f} (>= 0.99), "
                  f"end-to-end {report.end_to_end_cosine:.3f} (>= 0.5)")
