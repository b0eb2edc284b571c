"""Golden outputs: loss logs and eval reports pinned as recorded strings.

The other training tests compare one run against another, so a change
that shifts every run the same way passes them. These pin the exact text
of `loss.log` and of the eval report for the three training paths (the
displacement net plus the mobility regressor, the same without the
recurrence, and the direct baseline), so refactors of the training loops,
the readouts or the clustering must reproduce them byte for byte. The
strings were recorded on x86-64 with OpenBLAS; another BLAS may round
differently in the last printed digit.
"""
import pytest

from microfixtures import micro_config, micro_records
from partmotion import training as tr
from partmotion.cli import format_metrics

GOLDEN = {
    "full": (
        "step 0 epoch 0 loss 7982.279398 reconstruction 118.105012 motion_consistency 0.001901 segmentation 7864.172485\n"
        "step 3 epoch 0 loss 3013.925344 reconstruction 47.830552 motion_consistency 0.000000 segmentation 2966.094792\n"
        "step 6 epoch 0 loss 8192.443042 reconstruction 53.212978 motion_consistency 0.000000 segmentation 8139.230064\n"
        "epoch 0 mean_loss 5700.143871\n"
        "step 9 epoch 1 loss 2766.507063 reconstruction 19.637141 motion_consistency 0.000000 segmentation 2746.869922\n"
        "step 12 epoch 1 loss 1967.491829 reconstruction 18.423953 motion_consistency 0.000000 segmentation 1949.067877\n"
        "step 15 epoch 1 loss 2335.181548 reconstruction 17.149058 motion_consistency 0.000308 segmentation 2318.032181\n"
        "epoch 1 mean_loss 4756.283897\n"
        "mobility epoch 0 mean_loss 2.282985\n"
        "mobility epoch 1 mean_loss 2.165255\n",
        "metrics report\n"
        "model e_type 0.500000 e_angle 0.723985 e_dist 0.322897 e_seg 1.000000 parts 2 shapes 2\n"
        "mobfit e_type 0.500000 e_angle 0.716817 e_dist 0.297354 e_seg 1.000000 parts 2 shapes 2\n"
        "shape drawer_box_000 gt_parts 1 pred_iou 0.195\n"
        "shape fan_001 gt_parts 1 pred_iou 0.296\n",
    ),
    "no_rnn": (
        "step 0 epoch 0 loss 7065.473677 reconstruction 134.023959 motion_consistency 0.022604 segmentation 6931.427114\n"
        "step 3 epoch 0 loss 2184.159608 reconstruction 52.105235 motion_consistency 0.000000 segmentation 2132.054373\n"
        "step 6 epoch 0 loss 8393.025824 reconstruction 51.722014 motion_consistency 0.000000 segmentation 8341.303810\n"
        "epoch 0 mean_loss 4966.734553\n"
        "step 9 epoch 1 loss 1626.075048 reconstruction 27.244477 motion_consistency 0.000000 segmentation 1598.830570\n"
        "step 12 epoch 1 loss 1445.090345 reconstruction 19.955564 motion_consistency 0.000000 segmentation 1425.134781\n"
        "step 15 epoch 1 loss 1665.886311 reconstruction 25.672473 motion_consistency 0.004294 segmentation 1640.209544\n"
        "epoch 1 mean_loss 4959.045548\n"
        "mobility epoch 0 mean_loss 2.282985\n"
        "mobility epoch 1 mean_loss 2.165255\n",
        "metrics report\n"
        "model e_type 1.000000 e_angle 1.570796 e_dist 1.000000 e_seg 1.000000 parts 2 shapes 2\n"
        "mobfit e_type 1.000000 e_angle 1.570796 e_dist 1.000000 e_seg 1.000000 parts 2 shapes 2\n"
        "shape drawer_box_000 gt_parts 1 pred_iou 0.000\n"
        "shape fan_001 gt_parts 1 pred_iou -\n",
    ),
    "basenet": (
        "baseline epoch 0 mean_loss 3.466209\n"
        "baseline epoch 1 mean_loss 3.370709\n",
        "metrics report\n"
        "model e_type 0.500000 e_angle 1.349847 e_dist 0.074206 e_seg 1.000000 parts 2 shapes 2\n"
        "mobfit e_type 1.000000 e_angle 1.570796 e_dist 1.000000 e_seg 1.000000 parts 2 shapes 2\n"
        "shape drawer_box_000 gt_parts 1 pred_iou 0.391\n"
        "shape fan_001 gt_parts 1 pred_iou 0.266\n",
    ),
}

CHECKPOINTS = {f"step_{s:06d}.params" for s in (4, 8, 12, 16)}


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_golden_loss_log_and_eval_report(tmp_path, row):
    flags = {} if row == "full" else {row: True}
    config = micro_config(epochs=2, log_every=3, checkpoint_every=4, **flags)
    train = micro_records(("drawer_box", "fan"))
    test = micro_records(("drawer_box", "fan"), seed=1, split="test")
    tr.run_training(config, train, out_dir=tmp_path)
    loss_log, report = GOLDEN[row]
    assert (tmp_path / "loss.log").read_text() == loss_log
    written = {p.name for p in tmp_path.glob("step_*.params")}
    assert written == (set() if row == "basenet" else CHECKPOINTS)
    # score the reloaded checkpoint, as `partmotion eval` does
    result = tr.evaluate_model(test, tr.load_pipeline(tmp_path))
    assert "".join(line + "\n" for line in format_metrics(result)) == report
