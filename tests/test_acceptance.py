"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-6 and 10-11 are exact or oracle-backed property checks.
Criteria 7-9 are relational reproductions of the method's claims on the
canonical desk-scale scenarios (seeds 0, 1, 2): adaptation beats the
frozen baseline, removing replay causes forgetting, and continual
processing is no worse than per-video processing on matched content.
"""

import time

import numpy as np
import pytest

from oap.config import ClassLabel, HyperParams, PseudoLabel
from oap.engine import (
    Engine,
    adaptation_cost,
    calibrated_kflops_per_frame,
    run_baseline_frozen,
    write_trace_csv,
)
from oap.head import loss_and_grad
from oap.memory import OnlineBuffer, ReplayStore, sample_batch
from oap.metrics import evaluate_frames
from oap.presets import (
    ACCEPTANCE_SEEDS,
    build_artifacts,
    continual_scenario,
    desk_params,
    forgetting_scenario,
    single_video_scenarios,
)
from oap.pseudolabel import assign_pseudo_label, smooth_labels
from oap.rng import seeded_rng
from oap.simstream import Segment, StreamScenario, generate_stream

from oracles import brute_force_smooth, dense_sweep_eer, random_head


def report(number, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def desk():
    """Pre-trained artifacts for the three acceptance seeds."""
    return {seed: build_artifacts(seed) for seed in ACCEPTANCE_SEEDS}


def pooled_run(artifacts, params, scenarios, mode="adaptive"):
    """Run each scenario through its own fresh engine; pool scores/truth."""
    scores, truth = [], []
    for scenario in scenarios:
        frames, labels = generate_stream(artifacts.generator, scenario)
        if mode == "frozen":
            trace = run_baseline_frozen(artifacts.head, frames)
        else:
            trace = Engine(artifacts.head, artifacts.replay, params).run_stream(frames)
        scores.extend(r.y for r in trace)
        truth.extend(labels)
    return np.array(scores), np.array(truth)


def acer_at_half(scores, truth):
    apcer = float(np.mean(scores[truth == 1] <= 0.5))
    bpcer = float(np.mean(scores[truth == 0] > 0.5))
    return (apcer + bpcer) / 2.0


def test_01_gradient_oracle():
    """100 random (head, batch) cases: every analytic gradient coordinate
    matches central finite differences (step 1e-5) within rel. 1e-4.

    Batches are redrawn when any hidden pre-activation lands within 1e-3
    of the ReLU kink: a two-sided difference quotient straddling the kink
    does not estimate the derivative, so such points are outside the
    oracle's domain (standard gradient-checking practice)."""
    start = time.time()
    rng = np.random.default_rng(20240)
    step = 1e-5
    worst = 0.0
    for case in range(100):
        d = int(rng.integers(2, 7))
        head = random_head(d, seed=1000 + case)
        while True:
            feats = rng.normal(size=(8, d))
            if np.abs(feats @ head.w1 + head.b1).min() > 1e-3:
                break
        labels = rng.integers(0, 2, size=8)
        _, grad = loss_and_grad(head, feats, labels)
        grads = head.views(grad)
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(head, name)
            for idx, _ in np.ndenumerate(arr):
                orig = arr[idx]
                arr[idx] = orig + step
                lp, _ = loss_and_grad(head, feats, labels)
                arr[idx] = orig - step
                lm, _ = loss_and_grad(head, feats, labels)
                arr[idx] = orig
                fd = (lp - lm) / (2 * step)
                a = grads[name][idx]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
    elapsed = time.time() - start
    report(1, "gradient-oracle", worst < 1e-4 and elapsed < 10,
           f"max rel err {worst:.3e} (<1e-4), {elapsed:.1f}s (<10s)")


def test_02_pseudo_label_truth_table():
    """Exhaustive y grid x margin grid matches an independent transcription
    of the dual-threshold rule with symmetric thresholds."""
    start = time.time()

    def transcription(y, margin):
        tau_spoof, tau_live = 1.0 - margin, margin
        if margin == 0.5:
            return PseudoLabel.SPOOF if y > 0.5 else PseudoLabel.LIVE
        if y > tau_spoof:
            return PseudoLabel.SPOOF
        if y < tau_live:
            return PseudoLabel.LIVE
        return PseudoLabel.DISCARD

    mismatches = 0
    for margin in (0.01, 0.05, 0.1, 0.2, 0.5):
        for i in range(1, 1000):
            y = i / 1000.0
            if assign_pseudo_label(y, margin) != transcription(y, margin):
                mismatches += 1
    elapsed = time.time() - start
    report(2, "pseudo-label-truth-table", mismatches == 0 and elapsed < 1.0,
           f"{mismatches} mismatches over 4995 cells, {elapsed:.2f}s (<1s)")


def test_03_smoothing_oracle():
    """1,000 random gapped sequences: production smoothing equals the
    naive windowed majority recount exactly."""
    start = time.time()
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 301))
        idx = np.cumsum(rng.integers(1, 5, size=n))
        labels = rng.integers(0, 2, size=n)
        window = max(1, int(rng.integers(0, 25)) * 2)  # 1, not 0: both leave labels as they are
        if not np.array_equal(smooth_labels(idx, labels, window),
                              brute_force_smooth(idx, labels, window)):
            mismatches += 1
    elapsed = time.time() - start
    report(3, "smoothing-oracle", mismatches == 0 and elapsed < 5.0,
           f"{mismatches}/1000 sequences disagree, {elapsed:.1f}s (<5s)")


def test_04_buffer_bound(desk):
    """Full-acceptance 900-frame run at 30 fps, horizon 4 s: buffer holds
    exactly 120 entries from frame 120 on and never more."""
    artifacts = desk[0]
    scenario = StreamScenario((Segment(ClassLabel.LIVE, 900),), frame_rate=30.0, user_id=0)
    frames, _ = generate_stream(artifacts.generator, scenario)
    engine = Engine(artifacts.head, artifacts.replay, desk_params(seed=0, margin=0.5))
    trace = engine.run_stream(frames)
    sizes = [r.buffer_size for r in trace]
    ok = max(sizes) <= 120 and all(s == 120 for s in sizes[119:]) and sizes[118] == 119
    report(4, "buffer-bound", ok,
           f"max {max(sizes)}, size at frame 120 {sizes[119]}, all later =120: "
           f"{all(s == 120 for s in sizes[119:])}")


def test_05_sampler_statistics():
    """10,000 batches at online_prob 0.9, B=16: online fraction within
    [0.89, 0.91]; replay class split within [0.48, 0.52]."""
    d = 4
    buf = OnlineBuffer(d, 1, 4.0)
    for t in range(1, 101):
        label = PseudoLabel.SPOOF if t % 2 else PseudoLabel.LIVE
        f = np.full(d, 1.0)  # online rows marked by +1 in coordinate 0
        buf.insert(f, label, t, t / 30.0)
    buf.refresh_working_labels()
    replay_feats = np.full((400, d), -1.0)
    replay_labels = np.array([0, 1] * 200)
    replay = ReplayStore(replay_feats, replay_labels)

    rng = seeded_rng(7, "sampler")
    online_draws = 0
    replay_live = 0
    replay_total = 0
    total = 0
    for _ in range(10_000):
        feats, labels = sample_batch(buf, replay, 16, 0.9, rng)
        is_online = feats[:, 0] > 0
        online_draws += int(is_online.sum())
        replay_total += int((~is_online).sum())
        replay_live += int((labels[~is_online] == 0).sum())
        total += 16
    online_frac = online_draws / total
    class_frac = replay_live / replay_total
    ok = 0.89 <= online_frac <= 0.91 and 0.48 <= class_frac <= 0.52
    report(5, "sampler-statistics", ok,
           f"online fraction {online_frac:.4f} in [0.89,0.91]; "
           f"replay live fraction {class_frac:.4f} in [0.48,0.52]")


def test_06_cost_linearity():
    """adaptation_cost is exactly linear in the fine-tune frequency and the
    calibrated KFLOPs column reproduces 960 : 480 : 192 : 48 : 9.6."""
    params = HyperParams()
    freqs = (1.0, 0.5, 0.2, 0.05, 0.01)
    reference = (960.0, 480.0, 192.0, 48.0, 9.6)
    base = adaptation_cost(params.replace(finetune_freq=1.0), d=32)
    per_freq = [adaptation_cost(params.replace(finetune_freq=f), d=32) for f in freqs]
    linear = all(c / f == base for c, f in zip(per_freq, freqs))
    kflops = [
        calibrated_kflops_per_frame(params.replace(finetune_freq=f)) for f in freqs
    ]
    matches = all(k == r for k, r in zip(kflops, reference))
    report(6, "cost-linearity", linear and matches,
           f"cost/freq constant: {linear}; calibrated KFLOPs {kflops} == {list(reference)}")


def test_07_adaptation_benefit(desk):
    """Default drifted single-video scenario, 3 seeds: adaptive mean ACER
    at most 0.8x the frozen baseline's mean ACER."""
    start = time.time()
    frozen_acers, oap_acers = [], []
    for seed in ACCEPTANCE_SEEDS:
        artifacts = desk[seed]
        scenarios = single_video_scenarios(user_id=0)
        fs, ft = pooled_run(artifacts, None, scenarios, mode="frozen")
        os_, ot = pooled_run(artifacts, desk_params(seed=seed), scenarios)
        frozen_acers.append(acer_at_half(fs, ft))
        oap_acers.append(acer_at_half(os_, ot))
    frozen_mean = float(np.mean(frozen_acers))
    oap_mean = float(np.mean(oap_acers))
    elapsed = time.time() - start
    ok = oap_mean <= 0.8 * frozen_mean and elapsed < 120
    report(7, "adaptation-benefit", ok,
           f"adaptive mean ACER {oap_mean:.4f} vs frozen {frozen_mean:.4f} "
           f"(ratio {oap_mean / frozen_mean:.3f}, need <=0.8), {elapsed:.0f}s (<120s)")


def test_08_catastrophic_forgetting(desk):
    """Long live prefix then spoof attack: disabling replay (online_prob 1)
    yields strictly higher APCER on the spoof segment than online_prob 0.9,
    on every seed."""
    start = time.time()
    gaps = []
    for seed in ACCEPTANCE_SEEDS:
        artifacts = desk[seed]
        scenario = forgetting_scenario(user_id=0)
        frames, labels = generate_stream(artifacts.generator, scenario)
        apcer = {}
        for alpha in (1.0, 0.9):
            params = desk_params(seed=seed, online_prob=alpha)
            trace = Engine(artifacts.head, artifacts.replay, params).run_stream(frames)
            spoof_scores = np.array([r.y for r, l in zip(trace, labels) if l == 1])
            apcer[alpha] = float(np.mean(spoof_scores <= 0.5))
        gaps.append((seed, apcer[1.0], apcer[0.9]))
    elapsed = time.time() - start
    ok = all(a1 > a09 for _, a1, a09 in gaps) and elapsed < 120
    detail = "; ".join(f"seed {s}: {a1:.4f} > {a09:.4f}" for s, a1, a09 in gaps)
    report(8, "catastrophic-forgetting", ok, f"{detail}, {elapsed:.0f}s (<120s)")


def test_09_continual_stability(desk):
    """Interleaved live/spoof videos: continual mean ACER no worse than
    1.1x the single-video mean ACER on the same (matched) segments."""
    start = time.time()
    cont_acers, single_acers = [], []
    for seed in ACCEPTANCE_SEEDS:
        artifacts = desk[seed]
        params = desk_params(seed=seed)
        scenario = continual_scenario(user_id=0)
        frames, labels = generate_stream(artifacts.generator, scenario)
        trace = Engine(artifacts.head, artifacts.replay, params).run_stream(frames)
        cont_acers.append(acer_at_half(np.array([r.y for r in trace]), labels))

        scores, truth = [], []
        startf = 0
        for seg in scenario.segments:
            stop = startf + seg.duration_frames
            seg_trace = Engine(artifacts.head, artifacts.replay, params).run_stream(frames[startf:stop])
            scores.extend(r.y for r in seg_trace)
            truth.extend(labels[startf:stop])
            startf = stop
        single_acers.append(acer_at_half(np.array(scores), np.array(truth)))
    cont_mean = float(np.mean(cont_acers))
    single_mean = float(np.mean(single_acers))
    elapsed = time.time() - start
    ok = cont_mean <= 1.1 * single_mean and elapsed < 120
    report(9, "continual-stability", ok,
           f"continual mean ACER {cont_mean:.4f} vs single-video {single_mean:.4f} "
           f"(ratio {cont_mean / single_mean:.3f}, need <=1.1), {elapsed:.0f}s (<120s)")


def test_10_causality_and_determinism(desk, tmp_path):
    """Verdict t depends only on frames 1..t (50 random truncations), and
    identical seeded runs write bit-identical trace files."""
    start = time.time()
    artifacts = desk[0]
    params = desk_params(seed=0)
    scenario = StreamScenario((Segment(ClassLabel.LIVE, 300),), user_id=0)
    frames, labels = generate_stream(artifacts.generator, scenario)
    full = Engine(artifacts.head, artifacts.replay, params).run_stream(frames)
    rng = np.random.default_rng(4)
    cuts = sorted(int(c) for c in rng.integers(1, 301, size=50))
    causal = True
    for cut in cuts:
        prefix = Engine(artifacts.head, artifacts.replay, params).run_stream(frames[:cut])
        if prefix[cut - 1] != full[cut - 1]:
            causal = False
            break
    t1 = Engine(artifacts.head, artifacts.replay, params).run_stream(frames, ground_truth=labels)
    t2 = Engine(artifacts.head, artifacts.replay, params).run_stream(frames, ground_truth=labels)
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_trace_csv(p1, t1)
    write_trace_csv(p2, t2)
    identical = p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - start
    report(10, "causality-and-determinism", causal and identical and elapsed < 60,
           f"50 truncations causal: {causal}; trace files bit-identical: {identical}, "
           f"{elapsed:.0f}s (<60s)")


def test_11_eer_oracle():
    """200 random score sets: production EER within 0.005 of the dense
    10,001-point threshold sweep."""
    start = time.time()
    rng = np.random.default_rng(321)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(50, 301))
        live = rng.beta(rng.uniform(1, 4), rng.uniform(2, 6), size=n)
        spoof = rng.beta(rng.uniform(2, 6), rng.uniform(1, 4), size=n)
        scores = np.concatenate([live, spoof])
        labels = np.array([0] * n + [1] * n)
        gap = abs(evaluate_frames(scores, labels).eer - dense_sweep_eer(scores, labels))
        worst = max(worst, gap)
    elapsed = time.time() - start
    report(11, "eer-oracle", worst < 0.005 and elapsed < 5.0,
           f"max |production - dense sweep| {worst:.5f} (<0.005), {elapsed:.1f}s (<5s)")
