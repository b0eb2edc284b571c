"""Golden outputs: loss logs and eval reports pinned as recorded strings.

The other training tests compare one run against another, so a change
that shifts every run the same way passes them. These pin the exact text
of `loss.log` and of the eval report for the three training paths (the
displacement net plus the mobility regressor, the same without the
recurrence, and the direct baseline), and the `--oracle` report, so refactors of the training loops,
the readouts or the clustering must reproduce them byte for byte. A
SHA-256 of every `Pipeline.predict` output pins the prediction path
(encoder, heads, DBSCAN, mobfit, regressor) below the printed digits, and
a SHA-256 of a `generate_dataset` tree pins the corpus bytes. The
strings and digests were recorded on x86-64 with OpenBLAS; another BLAS
may round differently in the last printed digit, and in the digests.
"""
import hashlib

import numpy as np
import pytest

from microfixtures import micro_config, micro_records, spec_bytes, tree_hash
from partmotion import diffcore as dc
from partmotion import training as tr
from partmotion.cli import format_metrics
from partmotion.datagen import TEMPLATE_NAMES, generate_dataset

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

@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_golden_loss_log_and_eval_report(tmp_path, row):
    flags = {} if row == "full" else {row: True}
    config = micro_config(epochs=2, log_every=3, **flags)
    train = micro_records(("drawer_box", "fan"))
    test = micro_records(("drawer_box", "fan"), seed=1, split="test")
    tr.run_training(config, train, out_dir=tmp_path)
    loss_log, report = GOLDEN[row]
    assert (tmp_path / "loss.log").read_text() == loss_log
    # score the reloaded checkpoint, as `partmotion eval` does
    result = tr.evaluate_model(test, tr.load_pipeline(tmp_path))
    assert "".join(line + "\n" for line in format_metrics(result)) == report


ORACLE_REPORT = (
    "metrics report\n"
    "model e_type 0.000000 e_angle 0.000000 e_dist 0.000000 e_seg 0.000000 parts 7 shapes 8\n"
    "mobfit e_type 0.000000 e_angle 0.000000 e_dist 0.000000 e_seg 0.000000 parts 7 shapes 8\n"
    "shape drawer_box_000 gt_parts 1 pred_iou 1.000\n"
    "shape door_box_001 gt_parts 1 pred_iou 1.000\n"
    "shape fan_002 gt_parts 1 pred_iou 1.000\n"
    "shape laptop_003 gt_parts 1 pred_iou 1.000\n"
    "shape bottle_cap_TR_004 gt_parts 1 pred_iou 1.000\n"
    "shape cabinet_multi_005 gt_parts 2 pred_iou 1.000 1.000\n"
    "shape umbrella_006 gt_parts 1 pred_iou 1.000\n"
    "shape balance_007 gt_parts 3 pred_iou 1.000 1.000 1.000\n"
)


def test_golden_oracle_report():
    # one test shape of every category, multi-part and non-parametric ones included
    result = tr.evaluate_oracle(micro_records(TEMPLATE_NAMES, seed=1, split="test"))
    assert "".join(line + "\n" for line in format_metrics(result)) == ORACLE_REPORT


# Every step's loss, as `repr` of the root handed to `dc.backward`, for
# three epochs of the displacement net on the micro fixture. `loss.log`
# prints only every third step to 6 decimals; this pins every step to
# 1e-9 relative, so a graph rewrite that reorders float sums passes and
# one that changes what is computed does not.
LOSS_TRACE = {
    "full": (
        "7982.279397848302", "7294.279692185951", "3655.391967162298", "3013.9253440163843",
        "8593.856882441478", "3744.3431190083056", "8192.443042004561", "3124.631522834461",
        "8028.285238754501", "2766.507063195438", "7751.390940252731", "2261.5895107262627",
        "1967.491829451939", "6070.231536556884", "6869.593508482817", "2335.181547697649",
        "5703.4881092882", "7068.968209867272", "6640.232779597512", "1764.8821729601739",
        "1489.184200476278", "1420.2911455683698", "6420.010582780954", "1673.4574930954993",
    ),
    "no_rnn": (
        "7065.473677205104", "6024.535815936129", "2049.6688217146448", "2184.159607785082",
        "9497.539747480569", "2219.041103486032", "8393.025823899643", "2300.4318250833057",
        "9736.110086107614", "1626.075047523584", "8470.171342614827", "1927.9137562585724",
        "1445.090344858918", "7342.23304807055", "7458.884444508147", "1665.8863108331752",
        "6722.06673199416", "8591.243499275066", "7511.706009892865", "1382.2081822125108",
        "1403.469722473363", "1760.7091629617648", "6484.272143286082", "1488.4064872606791",
    ),
    "no_geom": (
        "7867.880150885886", "7292.668286731432", "3588.5241620844836", "2983.0292712107757",
        "8300.8493928086", "3703.013136795223", "8241.561546527728", "3036.461998382413",
        "7799.535276767225", "2731.663076472361", "7823.786724160181", "2239.3054412688343",
        "1902.174646542877", "6524.255803234355", "7133.110554518638", "2230.5519241335974",
        "6191.844761172594", "7245.302196514561", "7067.130838634313", "1542.2427471498845",
        "1316.3090545689397", "1231.1957459278258", "6624.416290573165", "1486.909100527204",
    ),
    "no_disp": (
        "7978.573632548895", "7290.718281454615", "3653.8757020491157", "3011.142202845239",
        "8638.79378229076", "3743.354776046664", "8187.889190420713", "3124.216742451318",
        "8080.264677083947", "2769.616964258348", "7761.49217983749", "2266.7400395528",
        "1969.6045415696562", "6062.506477398064", "6862.377408453907", "2338.111696739015",
        "5695.181073640019", "7062.971739174543", "6614.977183699246", "1769.335585827191",
        "1488.5437249183283", "1419.8939864946256", "6399.733583337689", "1674.5864004300436",
    ),
    "no_mot": (
        "7982.277497337964", "7294.279833864293", "3655.3903929797075", "3013.9186338716668",
        "8593.841217151912", "3744.3375034243654", "8192.42586731474", "3124.604069365419",
        "8028.250205575141", "2766.48582711324", "7751.344448678553", "2261.546262352177",
        "1967.4788012994395", "6070.172407310425", "6869.5409355884685", "2335.0309128053987",
        "5703.537041698538", "7068.993889934513", "6640.345523437179", "1764.3071242710348",
        "1488.6488430195207", "1419.9285753392082", "6420.061887834879", "1673.1535031227313",
    ),
}


@pytest.mark.parametrize("row", sorted(LOSS_TRACE))
def test_loss_trace_every_step(monkeypatch, row):
    flags = {} if row == "full" else {row: True}
    config = micro_config(epochs=3, **flags)
    instances = tr.prepare_instances(micro_records(("drawer_box", "fan")), config)
    roots = []
    backward = dc.backward

    def spy(root):
        roots.append(float(root.value))
        backward(root)

    monkeypatch.setattr(dc, "backward", spy)
    tr.train_displacement(instances, config)
    assert roots == pytest.approx([float(v) for v in LOSS_TRACE[row]], rel=1e-9)


# SHA-256 of `Pipeline.predict` on the start state of one micro test cloud
# per category, from the micro displacement net and regressor trained for
# two epochs: maps, labels, cluster confidences, and each part's mobility
# and mobfit spec, all as raw float64 bytes.
PREDICT_DIGEST = {
    "drawer_box": "fa26113693a91669c0c8c5a6ea0a0a1116cc16e02bcb5ab39e7dc31fc0acbdca",
    "door_box": "489170dea9d9ff70219b343edc11cc2f29452d8fb2fc8f14c430bbded1370e52",
    "fan": "aa185ed1b57f2bd085ab4ef1a8c4ddf732874f66eb22492338dbf43416b490d2",
    "laptop": "46c4205abc6164e73994e5ce0d63c76100bfbf9d35140eb444fa71feea4931a0",
    "bottle_cap_TR": "5967b955dd4f34e1df798196a28818211d9976ae40a8a7b35ef7914a8489d86b",
    "cabinet_multi": "734e91c2f2511cebbd9189e88e3589905b7ba4b8434be3c5794f7563c42cee98",
    "umbrella": "27c305d9deaf41b059a5a170fe78e1a3ee14ec20cab31451352552b00955413b",
    "balance": "ba9dc4592fa70616c6fcec5b7a5c27a53451598c5b0d513344468bffec5b2e0a",
}


def _prediction_digest(pred) -> str:
    h = hashlib.sha256()
    h.update(pred.maps.tobytes())
    h.update(pred.labels.tobytes())
    for part in sorted(pred.confidences):
        h.update(np.array([part, pred.confidences[part]]).tobytes())
    for part in sorted(pred.mobilities):
        h.update(np.int64(part).tobytes())
        h.update(spec_bytes(pred.mobilities[part]))
        h.update(spec_bytes(pred.fits[part]))
    return h.hexdigest()


@pytest.fixture(scope="module")
def micro_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("predict_run")
    tr.run_training(micro_config(epochs=2), micro_records(("drawer_box", "fan")), out_dir=out)
    return tr.load_pipeline(out)


@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_golden_predict_bytes(micro_pipeline, category):
    rec = micro_records(TEMPLATE_NAMES, seed=1, split="test")[TEMPLATE_NAMES.index(category)]
    pred = micro_pipeline.predict(rec.frames[0])
    assert pred.fits.keys() == pred.mobilities.keys()
    assert _prediction_digest(pred) == PREDICT_DIGEST[category]


# SHA-256 of a `generate_dataset` tree: five shapes of every category at
# the default 256 points and 8 frames, the last a scanned test shape, so the
# frames, shape.json, scan.ply, manifest and split file of every template
# are pinned byte for byte. Fewer shapes or frames miss last-bit changes
# in the screw transform, such as applying the slide before the rotation.
DATASET_DIGEST = "8afff37d74394b90bae1b0e9a358b9a388783f5882b531233f08ec92138f81f0"


def test_golden_dataset_bytes(tmp_path):
    generate_dataset(tmp_path, TEMPLATE_NAMES, shapes_per_category=5, n_points=256, n_frames=8, seed=3)
    assert sorted(p.name for p in tmp_path.glob("*/scan.ply")) == ["scan.ply"] * len(TEMPLATE_NAMES)
    assert tree_hash(tmp_path) == DATASET_DIGEST
