"""Benchmark artifact files: binary world container and JSONL records.

Every file opens with provenance (format version, generator seed, config
hash) and every byte is determined by its inputs: JSON is emitted with
sorted keys and repr floats, arrays as raw little-endian float64. The
container layout and the record reader live in focalcir.records.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable

from focalcir.benchgen.world import SyntheticWorld, WorldConfig
from focalcir.encoders import ContextDescriptor, SyntheticImage
from focalcir.errors import DataError
from focalcir.records import (
    canonical_json,
    from_record,
    open_file,
    parse_json,
    read_block,
    read_header,
    write_container,
)

_WORLD_MAGIC = b"FCWORLD1\n"


@dataclass
class JsonlHeader:
    """First line of every .jsonl artifact."""

    kind: str
    version: int
    seed: int
    config_hash: str


def save_world(path, world: SyntheticWorld, config_hash: str = "") -> None:
    images = list(world.images) + list(world.reserve_images)
    header = {
        "version": 1,
        "seed": world.seed,
        "config_hash": config_hash,
        "configs": {name: asdict(cfg) for name, cfg in world.configs.items()},
        "context_ids": sorted(world.contexts),
        "identity_ids": sorted(world.identities),
        "category_ids": sorted(world.categories),
        "n_reserve": len(world.reserve_images),
        "images": [
            {
                "image_id": im.image_id,
                "instance_id": im.instance_id,
                "category_id": im.category_id,
                "context_id": im.context_id,
                "subset": im.subset,
                "bbox": [float(v) for v in im.bbox],
                "grid_shape": list(im.grid.shape),
                "reserve": i >= len(world.images),
            }
            for i, im in enumerate(images)
        ],
    }
    write_container(path, _WORLD_MAGIC, header, itertools.chain(
        (world.contexts[cid].latent for cid in header["context_ids"]),
        (world.identities[iid] for iid in header["identity_ids"]),
        (world.categories[cat] for cat in header["category_ids"]),
        (im.grid for im in images),
    ))


def load_world(path) -> tuple[SyntheticWorld, str]:
    """Returns (world, stored config hash)."""
    with open_file(path, DataError) as fh:
        header = read_header(fh, _WORLD_MAGIC, DataError, path, "world file")
        configs = from_record(dict[str, WorldConfig], header["configs"], DataError,
                              f"{path}.configs", complete=True)
        world = SyntheticWorld(seed=header["seed"], configs=configs)
        d_of = {name: cfg.d_latent for name, cfg in configs.items()}
        for cid in header["context_ids"]:
            latent = read_block(fh, (d_of[cid.split("/")[0]],), DataError, path)
            world.contexts[cid] = ContextDescriptor(context_id=cid, latent=latent)
        for iid in header["identity_ids"]:
            world.identities[iid] = read_block(fh, (d_of[iid.split("/")[0]],), DataError, path)
        for cat in header["category_ids"]:
            world.categories[cat] = read_block(fh, (d_of[cat.split("/")[0]],), DataError, path)
        for rec in header["images"]:
            grid = read_block(fh, tuple(rec["grid_shape"]), DataError, path)
            image = SyntheticImage(
                image_id=rec["image_id"],
                instance_id=rec["instance_id"],
                category_id=rec["category_id"],
                context_id=rec["context_id"],
                subset=rec["subset"],
                bbox=tuple(rec["bbox"]),
                grid=grid,
            )
            (world.reserve_images if rec["reserve"] else world.images).append(image)
    return world, header.get("config_hash", "")


def write_jsonl(path, kind: str, records: Iterable[dict], seed: int, config_hash: str = "") -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json(asdict(JsonlHeader(kind, 1, int(seed), config_hash))) + b"\n")
        for rec in records:
            fh.write(canonical_json(rec) + b"\n")


def read_jsonl(path, expect_kind: str | None = None) -> tuple[JsonlHeader, list[dict]]:
    with open_file(path, DataError) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    header = from_record(JsonlHeader, parse_json(lines[0], DataError, f"{path} line 1"),
                         DataError, f"{path}:header", complete=True)
    if expect_kind is not None and header.kind != expect_kind:
        raise DataError(f"{path} holds {header.kind!r} records, expected {expect_kind!r}")
    return header, [parse_json(ln, DataError, f"{path} line {n}")
                    for n, ln in enumerate(lines[1:], 2)]
