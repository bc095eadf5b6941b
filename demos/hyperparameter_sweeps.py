#!/usr/bin/env python3
"""Ablation sweeps over the four main knobs, on one drifted stream.

- fine-tune frequency: error vs compute (the per-frame cost is exactly
  linear in the frequency; the calibrated column reports the full-scale
  deployment figure of 960 KFLOPs/frame at frequency 1)
- pseudo-label margin: quality/quantity trade-off of the discard band
- online sampling probability: replay mixing, up to the forgetting cliff
- replay size: diminishing returns vs memory
"""

import numpy as np

from oap import (
    Engine,
    adaptation_cost,
    build_artifacts,
    calibrated_kflops_per_frame,
    desk_params,
    evaluate_frames,
    forgetting_scenario,
    single_video_scenarios,
)
from oap.presets import carve_replay
from oap.simstream import generate_pretraining_set, generate_stream

SEED = 0


def pooled_acer(artifacts, params, scenarios, replay=None):
    replay = artifacts.replay if replay is None else replay
    scores, truth = [], []
    for scenario in scenarios:
        frames, labels = generate_stream(artifacts.generator, scenario)
        scores.extend(r.y for r in Engine(artifacts.head, replay, params).run_stream(frames))
        truth.extend(labels)
    return evaluate_frames(scores, truth).acer


def main():
    artifacts = build_artifacts(SEED)
    scenarios = single_video_scenarios(user_id=0)
    base = desk_params(seed=SEED)

    print("fine-tune frequency (error vs compute):")
    print("  freq   ACER    KFLOPs/frame (calibrated)  raw FLOPs/frame (d=32)")
    for freq in (1.0, 0.5, 0.2, 0.05, 0.01):
        params = base.replace(finetune_freq=freq)
        acer = pooled_acer(artifacts, params, scenarios)
        kflops = calibrated_kflops_per_frame(params)
        raw = adaptation_cost(params, artifacts.head.d)
        print(f"  {freq:4.2f}   {acer:.4f}  {kflops:10.1f}               {raw:12.1f}")

    print("\npseudo-label margin (discard-band width 1 - 2*margin):")
    print("  margin  ACER    note")
    for margin in (0.01, 0.05, 0.1, 0.2, 0.5):
        acer = pooled_acer(artifacts, base.replace(margin=margin), scenarios)
        note = "single-threshold mode: every frame admitted" if margin == 0.5 else ""
        print(f"  {margin:5.2f}   {acer:.4f}  {note}")

    print("\nonline sampling probability (forgetting probe, APCER on attack):")
    probe = forgetting_scenario(user_id=0)
    frames, labels = generate_stream(artifacts.generator, probe)
    spoof_mask = labels == 1
    print("  alpha   attack APCER")
    for alpha in (0.3, 0.6, 0.8, 0.9, 1.0):
        run = Engine(
            artifacts.head, artifacts.replay, base.replace(online_prob=alpha)
        ).run_stream(frames)
        apcer = float(np.mean(np.array([r.y for r in run])[spoof_mask] <= 0.5))
        print(f"  {alpha:4.1f}    {apcer:.4f}")

    print("\nreplay size (memory is 8*(d+1) bytes per stored sample):")
    feats, labels = generate_pretraining_set(artifacts.generator, 20, 500)
    print("  |Dp|    ACER    memory bytes")
    for size in (100, 500, 1000, 5000):
        replay = carve_replay(feats, labels, size, SEED)
        acer = pooled_acer(artifacts, base, scenarios, replay=replay)
        print(f"  {size:5d}   {acer:.4f}  {size * (artifacts.head.d + 1) * 8:>10d}")


if __name__ == "__main__":
    main()
