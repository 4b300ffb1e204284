"""Benchmark artifact files: binary world container and JSONL records.

Every file opens with provenance (format version, generator seed, config
hash) and every byte is determined by its inputs: JSON is emitted with
sorted keys and repr floats, arrays as raw little-endian float64. The
container layout and the record reader live in focalcir.records.

Work is paid per pool and per file, not per image or per record: the grids
of a world pool sit back to back in one array and go out in one write, a
JSONL file is one write, and a loaded world's grids are views of one buffer
filled by one read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from focalcir.benchgen.world import SyntheticWorld, WorldConfig
from focalcir.encoders import ContextDescriptor, SyntheticImage
from focalcir.errors import DataError
from focalcir.geometry import BOX
from focalcir.records import (
    ID,
    canonical_json,
    from_record,
    open_file,
    parse_json,
    read_block,
    read_end,
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


@dataclass(slots=True)
class ImageRecord:
    """One image in the world.bin header; its grid follows as a raw block.

    Slots, because a loaded default world holds 5.8k of these next to its
    raw JSON: with a __dict__ each, peak RSS rose about 1 MB."""

    image_id: str = field(metadata=ID)
    instance_id: str = field(metadata=ID)
    category_id: str = field(metadata=ID)
    context_id: str = field(metadata=ID)
    subset: str
    bbox: tuple[float, float, float, float] = field(metadata=BOX)
    grid_shape: tuple[int, int, int]
    reserve: bool


@dataclass
class WorldHeader:
    """The world.bin header. The latents follow in the order of context_ids,
    identity_ids and category_ids, then one grid per image in list order."""

    version: int
    seed: int
    config_hash: str
    configs: dict[str, WorldConfig]
    context_ids: list[str]
    identity_ids: list[str]
    category_ids: list[str]
    n_reserve: int
    images: list[ImageRecord]


def save_world(path, world: SyntheticWorld, config_hash: str = "") -> None:
    images = list(world.images) + list(world.reserve_images)
    header = WorldHeader(
        version=1, seed=world.seed, config_hash=config_hash, configs=world.configs,
        context_ids=sorted(world.contexts), identity_ids=sorted(world.identities),
        category_ids=sorted(world.categories), n_reserve=len(world.reserve_images),
        images=[
            ImageRecord(im.image_id, im.instance_id, im.category_id, im.context_id, im.subset,
                        tuple(float(v) for v in im.bbox), im.grid.shape, i >= len(world.images))
            for i, im in enumerate(images)
        ],
    )
    # asdict() would cost about 20 us on each of the flat image records
    payload = vars(header) | {
        "configs": {name: asdict(cfg) for name, cfg in world.configs.items()},
        "images": [{k: getattr(rec, k) for k in ImageRecord.__slots__} for rec in header.images],
    }
    write_container(path, _WORLD_MAGIC, payload, itertools.chain(
        (world.contexts[cid].latent for cid in header.context_ids),
        (world.identities[iid] for iid in header.identity_ids),
        (world.categories[cat] for cat in header.category_ids),
        (im.grid for im in images),
    ))


def load_world(path) -> tuple[SyntheticWorld, str]:
    """Returns (world, stored config hash)."""
    with open_file(path, DataError) as fh:
        # no name holds the raw JSON dict, so it is freed once the records exist
        header = from_record(
            WorldHeader, read_header(fh, _WORLD_MAGIC, DataError, path, "world file"),
            DataError, str(path), complete=True,
        )
        n_reserve = sum(rec.reserve for rec in header.images)
        if n_reserve != header.n_reserve:
            raise DataError(f"{path} declares n_reserve {header.n_reserve} "
                            f"but marks {n_reserve} images reserve")

        def config_of(key: str) -> WorldConfig:
            try:
                return header.configs[key.split("/")[0]]
            except KeyError:
                raise DataError(f"{path}: {key!r} belongs to no subset of the world") from None

        world = SyntheticWorld(seed=header.seed, configs=header.configs)
        for cid in header.context_ids:
            latent = read_block(fh, (config_of(cid).d_latent,), DataError, path)
            world.contexts[cid] = ContextDescriptor(context_id=cid, latent=latent)
        for iid in header.identity_ids:
            world.identities[iid] = read_block(fh, (config_of(iid).d_latent,), DataError, path)
        for cat in header.category_ids:
            world.categories[cat] = read_block(fh, (config_of(cat).d_latent,), DataError, path)

        @functools.cache
        def grid_of(subset: str) -> tuple[tuple[int, int, int], int]:
            cfg = config_of(subset)
            shape = (*cfg.grid, cfg.d_latent)
            return shape, math.prod(shape)

        # each image's ids name a context, an identity and a category of the header
        listed = (("context_id", "context_ids", world.contexts),
                  ("instance_id", "identity_ids", world.identities),
                  ("category_id", "category_ids", world.categories))
        offsets, seen = [0], {}  # where each grid starts in the grid blocks
        for i, rec in enumerate(header.images):
            if (first := seen.setdefault(rec.image_id, i)) != i:
                raise DataError(f"{path}.images[{i}].image_id: {rec.image_id!r} "
                                f"repeats images[{first}]")
            if (rec.context_id not in world.contexts or rec.instance_id not in world.identities
                    or rec.category_id not in world.categories):
                key, ids, known = next(n for n in listed if getattr(rec, n[0]) not in n[2])
                raise DataError(f"{path}.images[{i}].{key}: {getattr(rec, key)!r} is not "
                                f"in the header's {ids}")
            shape, size = grid_of(rec.subset)
            if rec.grid_shape != shape:
                raise DataError(f"{path}: image {rec.image_id!r} has grid_shape "
                                f"{list(rec.grid_shape)}, its subset {list(shape)}")
            offsets.append(offsets[-1] + size)
        # one read fills one buffer, and each grid is a view of its stretch;
        # not a memmap, since a file may be rewritten while its world lives
        grids = np.empty(offsets[-1], dtype="<f8")
        if fh.readinto(grids) != grids.nbytes:
            raise DataError(f"{path} is truncated")
        read_end(fh, DataError, path, "grid")
        for rec, start, stop in zip(header.images, offsets, offsets[1:]):
            image = SyntheticImage(
                image_id=rec.image_id,
                instance_id=rec.instance_id,
                category_id=rec.category_id,
                context_id=rec.context_id,
                subset=rec.subset,
                bbox=rec.bbox,
                grid=grids[start:stop].reshape(rec.grid_shape),
            )
            (world.reserve_images if rec.reserve else world.images).append(image)
    return world, header.config_hash


def write_jsonl(path, kind: str, records: Iterable[dict], seed: int, config_hash: str = "") -> None:
    lines = [canonical_json(asdict(JsonlHeader(kind, 1, int(seed), config_hash)))]
    lines.extend(map(canonical_json, records))
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def read_jsonl(path, expect_kind: str) -> tuple[JsonlHeader, list[dict]]:
    with open_file(path, DataError) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    header = from_record(JsonlHeader, parse_json(lines[0], DataError, f"{path} line 1"),
                         DataError, f"{path}:header", complete=True)
    if header.version != 1:
        raise DataError(f"unsupported JSONL version {header.version!r} in {path}")
    if header.kind != expect_kind:
        raise DataError(f"{path} holds {header.kind!r} records, expected {expect_kind!r}")
    return header, [parse_json(ln, DataError, f"{path} line {n}")
                    for n, ln in enumerate(lines[1:], 2)]
