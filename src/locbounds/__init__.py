"""Fundamental localization-accuracy limits for cooperative wideband networks.

The package computes squared/directional position error bounds (SPEB/DPEB)
by assembling and reducing equivalent Fisher information matrices, derives
ranging-information intensities from waveform and path-loss models, evaluates
closed-form cooperation bounds, and runs seeded Monte Carlo scaling
experiments.
"""

from .infogeo import (
    UNLOCALIZABLE,
    BlockMatrix,
    EllipseForm,
    InfoMatrix2,
    SingularComplementError,
    Unlocalizable,
    dpeb,
    fuse_anchor,
    rdm,
    rdm3d,
    rotate,
    schur_reduce,
    speb,
    to_ellipse,
)
from .ranging import (
    ChannelPriorBlocks,
    DegenerateChannelError,
    MultipathChannel,
    PsiMatrix,
    RangingLink,
    WaveformModel,
    effective_bandwidth,
    first_contiguous_cluster,
    first_path_snr,
    gaussian_pulse,
    known_los_bias_prior,
    path_overlap_chi,
    psi_matrix,
    rii_no_prior,
    rii_pathloss,
    rii_with_channel_prior,
    sinc_pulse,
)
from .network import (
    NetworkEfim,
    Node,
    Topology,
    agent_efim,
    anchor_equivalence_check,
    build_efim,
    join,
    leave,
    relabel_as_anchor,
    temporal_efim,
)
from .bounds import (
    CooperationCoeffs,
    EffectiveRii,
    effective_rii,
    efim_bounds,
    efim_bounds_all,
    two_agent_exact,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    default_spec,
    gen_dense,
    gen_extended,
    lemma1_check,
    lemma2_check,
    run_experiment,
    run_fig6,
    run_fig7,
    run_fig8,
    run_scaling,
    substream,
)

__version__ = "0.1.0"
