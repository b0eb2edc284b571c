"""Synthetic articulated-shape corpus: templates, motion, scans, storage."""
from .dataset import (
    FORMAT_VERSION,
    ShapeRecord,
    generate_dataset,
    load_dataset,
    load_shape,
    mobility_from_json,
    mobility_to_json,
)
from .scan import (
    DEPTH_SIGMA,
    hidden_point_removal,
    partial_scan,
    scan_with_viewpoint_retries,
)
from .sequences import (
    MotionSequence,
    TrainingInstance,
    make_instances,
    make_sequence,
)
from .templates import (
    TEMPLATE_NAMES,
    ShapeSample,
    generate_shape,
    min_part_points,
)

__all__ = [
    "FORMAT_VERSION",
    "ShapeRecord",
    "generate_dataset",
    "load_dataset",
    "load_shape",
    "mobility_from_json",
    "mobility_to_json",
    "DEPTH_SIGMA",
    "hidden_point_removal",
    "partial_scan",
    "scan_with_viewpoint_retries",
    "MotionSequence",
    "TrainingInstance",
    "make_instances",
    "make_sequence",
    "TEMPLATE_NAMES",
    "ShapeSample",
    "generate_shape",
    "min_part_points",
]
