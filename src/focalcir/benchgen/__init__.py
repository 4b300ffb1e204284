"""Synthetic benchmark generation: worlds, pair filtering, quadruples, galleries."""

from focalcir.benchgen.filtering import PRESETS, FilterThresholds, filter_pairs
from focalcir.benchgen.gallery import GalleryEntry, GalleryManifest, build_gallery
from focalcir.benchgen.io import (
    load_world,
    read_jsonl,
    save_world,
    write_jsonl,
)
from focalcir.benchgen.pipeline import (
    Benchmark,
    build_benchmark,
    default_world_configs,
    load_benchmark,
    save_benchmark,
)
from focalcir.benchgen.quadruples import Quadruple, make_quadruples
from focalcir.benchgen.world import SyntheticWorld, WorldConfig, generate_world
