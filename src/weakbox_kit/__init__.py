"""Box-supervised binary segmentation at desk scale."""

from .boxes import (
    BoxCoords,
    Center,
    CenterStatus,
    EmptyMaskError,
    backproject_max,
    backproject_min,
    batch_mask_to_box,
    box_coords,
    center_status,
    decide_branches,
    gt_box_mask,
    mask_to_box,
    min_gap_box,
    project,
    rasterize_box,
)
from .config import RunConfig, load_run_config
from .losses import bce_loss, branch_loss, detail_refine_loss, dice_loss, mm2b_loss, sc_loss
from .metrics import ConfusionCounts, acc_sen_spe, confusion_counts, dsc_miou, hd95
from .nets import NetConfig, ParamStore, detail_refine_forward, fusion_gate, init_params, two_scale_forward
from .synth import DatasetSpec, Sample, gen_blob_mask, generate_dataset, load_dataset, render_image, save_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
