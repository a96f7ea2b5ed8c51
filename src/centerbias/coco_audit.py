"""Object-position heatmaps from detection-style annotation JSON.

Centroid mode counts normalized box centers into a G x G grid; bbox mode
counts every grid cell whose center the normalized box covers.  Image sizes
are heterogeneous, so all coordinates are normalized per image before
binning.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .netpbm import to_u8, write_pgm

__all__ = [
    "Annotation", "AnnotationSet", "Heatmap",
    "parse_annotations", "heatmap",
    "write_heatmap_pgm",
]

DEFAULT_GRID = 128


@dataclass(frozen=True)
class Annotation:
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # (x, y, w, h), clipped


@dataclass
class AnnotationSet:
    images: dict[int, tuple[float, float]]   # id -> (width, height)
    annotations: list[Annotation]
    categories: dict[int, str]               # id -> name
    dropped: int = 0                         # empty after clipping


def _elements(doc: dict, key: str):
    """(name, element) for each element of array doc[key], each an object."""
    for i, rec in enumerate(doc[key]):
        where = f"{key}[{i}]"
        if not isinstance(rec, dict):
            raise ValueError(f"{where} must be an object, not "
                             f"{type(rec).__name__}")
        yield where, rec


def _field(rec: dict, where: str, key: str, ok, what: str):
    """rec[key], which must be present and pass `ok` (described by `what`)."""
    if key not in rec:
        raise ValueError(f"{where} is missing field {key!r}")
    v = rec[key]
    if not ok(v):
        raise ValueError(f"{where}.{key} must be {what}, got {v!r}")
    return v


def _is_int(v) -> bool:
    # a float id would alias an integer one under int(), and so would a bool
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # finite as a float: no nan, inf or int beyond the float range
    return (_is_int(v) or isinstance(v, float)) and \
        abs(v) <= sys.float_info.max


def _is_box(v) -> bool:
    return isinstance(v, list) and len(v) == 4 and all(map(_is_number, v))


def _by_id(doc: dict, key: str, value) -> dict:
    """{id: value(element, name)} over array doc[key]; ids are unique ints."""
    out = {}
    for where, rec in _elements(doc, key):
        rid = _field(rec, where, "id", _is_int, "an integer")
        if rid in out:
            raise ValueError(f"{where}.id repeats id {rid}")
        out[rid] = value(rec, where)
    return out


def _image_size(rec: dict, where: str) -> tuple[float, float]:
    return tuple(float(_field(rec, where, key,
                              lambda v: _is_number(v) and v > 0,
                              "a positive number"))
                 for key in ("width", "height"))


def parse_annotations(payload: bytes | str) -> AnnotationSet:
    """Parse COCO-style JSON (images / annotations / categories arrays).

    Every element is an object; image and category ids are integers, unique
    within their array; image sizes are positive numbers, category names
    strings and each bbox a list of 4 numbers.  A violation, or an
    annotation referencing an unknown image id, is a ValueError naming the
    element.  Out-of-bounds boxes are clipped to their image; boxes that
    are empty after clipping are dropped and counted.
    """
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed annotation JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError("annotation JSON must hold an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"annotation JSON needs a {key!r} array")
    images = _by_id(doc, "images", _image_size)
    categories = _by_id(doc, "categories", lambda rec, where: _field(
        rec, where, "name", lambda v: isinstance(v, str), "a string"))
    annotations = []
    dropped = 0
    for where, ann in _elements(doc, "annotations"):
        image_id = _field(ann, where, "image_id", _is_int, "an integer")
        category_id = _field(ann, where, "category_id", _is_int,
                             "an integer")
        x, y, w, h = map(float, _field(ann, where, "bbox", _is_box,
                                       "a list of 4 numbers"))
        if image_id not in images:
            raise ValueError(f"{where}.image_id references unknown image "
                             f"{image_id}")
        iw, ih = images[image_id]
        x0, y0 = max(x, 0.0), max(y, 0.0)
        x1, y1 = min(x + w, iw), min(y + h, ih)
        if x1 <= x0 or y1 <= y0:
            dropped += 1
            continue
        annotations.append(
            Annotation(image_id, category_id, (x0, y0, x1 - x0, y1 - y0)))
    return AnnotationSet(images, annotations, categories, dropped)


@dataclass
class Heatmap:
    grid: np.ndarray          # (G, G) float counts, row = y cell
    mode: str                 # "centroid" | "bbox"
    category: str
    total_count: int


def _resolve_category(aset: AnnotationSet, category) -> int:
    if isinstance(category, str):
        for cid, name in aset.categories.items():
            if name == category:
                return cid
        raise ValueError(f"unknown category {category!r}")
    if category in aset.categories:
        return int(category)
    raise ValueError(f"unknown category id {category}")


def heatmap(aset: AnnotationSet, category, mode: str,
            grid_size: int = DEFAULT_GRID) -> Heatmap:
    """Count the category's normalized boxes into a G x G grid.

    centroid: each box adds 1 to the cell of its center, so the grid sums
    to the annotation count.  bbox: each box adds 1 to every cell whose
    center lies inside it; a box too small to cover any cell center adds
    its centroid's cell, so every annotation leaves a mark.
    """
    if mode not in ("centroid", "bbox"):
        raise ValueError(f"unknown heatmap mode {mode!r}")
    cid = _resolve_category(aset, category)
    G = grid_size
    grid = np.zeros((G, G), dtype=np.float64)
    centers = (np.arange(G) + 0.5) / G
    anns = [ann for ann in aset.annotations if ann.category_id == cid]
    for ann in anns:
        iw, ih = aset.images[ann.image_id]
        x, y, w, h = ann.bbox
        u, v = (x + w / 2) / iw, (y + h / 2) / ih
        if mode == "bbox":
            u0, u1 = x / iw, (x + w) / iw
            v0, v1 = y / ih, (y + h) / ih
            cols = (centers >= u0) & (centers <= u1)
            rows = (centers >= v0) & (centers <= v1)
            if cols.any() and rows.any():
                grid[np.ix_(rows, cols)] += 1
                continue
            u, v = (u0 + u1) / 2, (v0 + v1) / 2
        grid[min(int(v * G), G - 1), min(int(u * G), G - 1)] += 1
    return Heatmap(grid, mode, aset.categories[cid], len(anns))


def write_heatmap_pgm(heatmap: Heatmap, path) -> None:
    """Binary PGM scaled so the grid max maps to 255, plus a sidecar CSV of
    raw counts at the same stem."""
    path = str(path)
    write_pgm(path, to_u8(heatmap.grid))
    stem = path[:-4] if path.endswith(".pgm") else path
    with open(stem + ".csv", "w", newline="") as f:
        writer = csv.writer(f)
        for row in heatmap.grid:
            writer.writerow([f"{v:g}" for v in row])
