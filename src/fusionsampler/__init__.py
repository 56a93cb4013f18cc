"""Two-stage multi-condition diffusion sampling on analytically tractable Gaussian mixtures."""

from fusionsampler.artifacts import (
    load_json,
    render_csv,
    render_json,
    render_scatter_svg,
)
from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import ToyDenoiser, train_denoiser
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    ToyPromptNet,
    TrainingConfig,
    new_promptnet,
    train_promptnet,
)
from fusionsampler.evaluate import (
    ablation_suite,
    adherence_scores,
    degeneration_benchmark,
    regularization_sweep,
    spearman,
)
from fusionsampler.guidance import GuidanceWeights, cfg_independent, cfg_single
from fusionsampler.mixture import (
    MixtureOracle,
    MixtureWorld,
    oracle_eps,
    oracle_log_density,
)
from fusionsampler.posterior import (
    check_variance_bound,
    predict_x0,
    renoise,
    sample_prev,
)
from fusionsampler.runconfig import ConfigError, RunConfig, validate_config
from fusionsampler.sampler import (
    FusionConfig,
    sample_trajectory,
)
from fusionsampler.schedule import (
    DiffusionSchedule,
    SigmaProfile,
    build_schedule,
    sigma_values,
)
from fusionsampler.verify import run_checks
from fusionsampler.worlds import (
    WORLD_PRESETS,
    conflict_world,
    identity_condition,
    leaky_identity_condition,
    product_world,
    single_gaussian_world,
    style_condition,
)

__version__ = "0.1.0"
