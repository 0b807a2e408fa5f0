"""Combinatorial pyramids over image partitions.

Encodes a hierarchy of region merges implicitly over one base grid map and
answers region relationships (meets, contains, inside, composed_of) with
local computations on any level.
"""

from .boundary import CrackChain, Segment, segment, sequence_orientation
from .containment import VisitCounter, contains, inside_all, inside_direct, starting_darts
from .map_core import CombinatorialMap, CrackEmbedding, Dart, ValidationReport, build_grid_map, to_dot, validate
from .moves import Move
from .netpbm import NetpbmError, load_image, save_pgm, save_ppm
from .pyramid import Kernel, KernelError, KernelState, Pyramid
from .relations import infinite_region, meets_each, meets_exists, rag_export, rag_to_dot, region_ids, relation_report
from .segmentation import RegionStats, RoadsignNotFound, SegmentedImage, roadsign_extract, segment_labels

__version__ = "0.1.0"

__all__ = [
    "CombinatorialMap",
    "CrackChain",
    "CrackEmbedding",
    "Dart",
    "Kernel",
    "KernelError",
    "KernelState",
    "Move",
    "NetpbmError",
    "Pyramid",
    "RegionStats",
    "RoadsignNotFound",
    "Segment",
    "SegmentedImage",
    "ValidationReport",
    "VisitCounter",
    "build_grid_map",
    "contains",
    "infinite_region",
    "inside_all",
    "inside_direct",
    "load_image",
    "meets_each",
    "meets_exists",
    "rag_export",
    "rag_to_dot",
    "region_ids",
    "relation_report",
    "roadsign_extract",
    "save_pgm",
    "save_ppm",
    "segment",
    "segment_labels",
    "sequence_orientation",
    "starting_darts",
    "to_dot",
    "validate",
]
