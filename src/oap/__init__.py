"""Online adaptive personalization for streaming binary classification.

A small trainable classifier head scores every incoming feature frame,
then fine-tunes itself on its own confident predictions: dual-threshold
pseudo-labels, sliding-window majority smoothing, a time-windowed online
buffer, and a frozen replay store that guards against catastrophic
forgetting. A synthetic drift-stream generator, error metrics, and an
experiment CLI make the whole loop reproducible at desk scale.
"""

from .config import ClassLabel, HyperParams, PseudoLabel
from .engine import (
    Engine,
    FrameVerdict,
    TraceRecord,
    adaptation_cost,
    calibrated_kflops_per_frame,
    run_baseline_frozen,
    run_baseline_smoothed,
)
from .errors import ConfigError, DataError, NumericalError, OapError
from .head import (
    AdamState,
    ClassifierHead,
    PretrainSchedule,
    apply_update,
    forward,
    init_head,
    load_head,
    loss_and_grad,
    pretrain,
    save_head,
)
from .memory import OnlineBuffer, ReplayStore, sample_batch, subsample_pretraining
from .presets import (
    DeskArtifacts,
    build_artifacts,
    continual_scenario,
    desk_params,
    forgetting_scenario,
    single_video_scenarios,
)
from .metrics import MetricReport, equal_error_rate, evaluate_frames, fixed_threshold_metrics
from .pseudolabel import assign_pseudo_label, smooth_labels
from .rng import seeded_rng
from .simstream import (
    GeneratorConfig,
    Segment,
    StreamFrame,
    StreamScenario,
    generate_pretraining_set,
    generate_stream,
    load_feature_file,
    save_feature_file,
)

__version__ = "0.1.0"
