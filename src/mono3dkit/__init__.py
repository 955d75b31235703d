"""Sensor-free toolkit for weakly supervised monocular 3D detection:
virtual-camera normalization, 3D pseudo-label generation, loss kernels
with analytic gradients, robust filtering, and KITTI-protocol evaluation.
"""

from .config import DEFAULT_PRIORS, PipelineConfig, load_config
from .dataio import (
    DetectionEntry,
    KittiLabelRecord,
    read_calib,
    read_depth,
    read_detections,
    read_labels,
    write_depth,
    write_detections,
    write_labels,
)
from .errors import (
    ConfigError,
    DataIOError,
    DegenerateQueryError,
    EmptyInputError,
    InvalidIntrinsicsError,
    MisalignedInputsError,
    NonPositiveDepthError,
    ParseError,
    PipelineError,
    ShapeMismatchError,
)
from .eval3d import (
    DIFFICULTY_NAMES,
    EvalFrame,
    EvalResult,
    HeightStats,
    MatchConfig,
    ap_r40,
    ap_r40_frames,
    bev_iou,
    box2d_iou,
    height_histogram,
    iou3d,
    matches_difficulty,
)
from .geometry import (
    CameraIntrinsics,
    CamPoint3,
    VirtualCameraSpec,
    VirtualIntrinsics,
    backproject,
    from_virtual,
    make_virtual_intrinsics,
    project,
    to_virtual,
)
from .kernels import (
    GRADIENT_ERROR_BOUND,
    BinSpec,
    GateParams,
    GaussianDepth,
    LossReport,
    MaskPair,
    bce_loss,
    bin_centers,
    consistency_loss,
    depth_kl,
    dice_loss,
    diversity_loss,
    finite_diff_check,
    l2_reg,
    outlier_filter,
    query_gate,
    region_loss,
    run_gradient_suite,
)
from .pseudolabel import (
    Box3D,
    ClassPrior,
    Detection2D,
    DepthRaster,
    DimensionPrior,
    LabelingDiagnostics,
    LabelingResult,
    PseudoLabel,
    estimate_dimensions,
    generate_pseudo_labels,
)

__version__ = "0.1.0"
