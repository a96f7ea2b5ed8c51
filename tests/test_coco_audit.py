"""Annotation parsing and heatmap oracles, including brute-force cell
assignment cross-checks."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import coco_audit, netpbm


def doc(images=(), annotations=(), categories=()):
    return json.dumps({
        "images": list(images),
        "annotations": list(annotations),
        "categories": list(categories),
    })


IMAGES = [{"id": 1, "width": 100, "height": 100},
          {"id": 2, "width": 200, "height": 50}]
CATS = [{"id": 7, "name": "widget"}, {"id": 9, "name": "gadget"}]


class TestParse:
    def test_empty_arrays(self):
        aset = coco_audit.parse_annotations(doc())
        assert aset.annotations == [] and aset.images == {}

    def test_unknown_image_id_errors(self):
        payload = doc(IMAGES, [{"image_id": 99, "category_id": 7,
                                "bbox": [0, 0, 5, 5]}], CATS)
        with pytest.raises(ValueError):
            coco_audit.parse_annotations(payload)

    def test_three_record_fixture(self):
        anns = [
            {"image_id": 1, "category_id": 7, "bbox": [10, 10, 20, 20]},
            {"image_id": 1, "category_id": 9, "bbox": [0, 0, 50, 50]},
            {"image_id": 2, "category_id": 7, "bbox": [150, 10, 40, 30]},
        ]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        assert len(aset.annotations) == 3
        assert aset.dropped == 0
        assert aset.categories == {7: "widget", 9: "gadget"}

    def test_out_of_bounds_clipped_and_degenerate_dropped(self):
        anns = [
            {"image_id": 1, "category_id": 7, "bbox": [90, 90, 30, 30]},
            {"image_id": 1, "category_id": 7, "bbox": [150, 0, 10, 10]},
        ]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        assert len(aset.annotations) == 1
        assert aset.annotations[0].bbox == (90.0, 90.0, 10.0, 10.0)
        assert aset.dropped == 1

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            coco_audit.parse_annotations(b"{not json")

    def test_missing_arrays(self):
        with pytest.raises(ValueError):
            coco_audit.parse_annotations(json.dumps({"images": []}))

    def test_missing_field(self):
        with pytest.raises(ValueError):
            coco_audit.parse_annotations(
                doc(IMAGES, [{"image_id": 1, "bbox": [0, 0, 1, 1]}], CATS))


class TestCentroid:
    def test_arithmetic_oracle(self):
        anns = [{"image_id": 1, "category_id": 7, "bbox": [10, 10, 20, 20]}]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, "widget", "centroid", 4)
        assert hm.grid[0, 0] == 1
        assert hm.grid.sum() == 1

    def test_corner_clamped(self):
        anns = [{"image_id": 1, "category_id": 7, "bbox": [90, 90, 10, 10]}]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, 7, "centroid", 4)
        assert hm.grid[3, 3] == 1

    def test_unknown_category(self):
        aset = coco_audit.parse_annotations(doc(IMAGES, [], CATS))
        with pytest.raises(ValueError):
            coco_audit.heatmap(aset, "doohickey", "centroid", 4)

    def test_unknown_mode(self):
        aset = coco_audit.parse_annotations(doc(IMAGES, [], CATS))
        with pytest.raises(ValueError, match="unknown heatmap mode 'box'"):
            coco_audit.heatmap(aset, "widget", "box", 4)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_sum_equals_count_and_order_invariance(self, seed, G):
        rng = np.random.default_rng(seed)
        anns = []
        for _ in range(rng.integers(1, 30)):
            img = int(rng.integers(1, 3))
            iw, ih = (100, 100) if img == 1 else (200, 50)
            x = float(rng.uniform(0, iw - 1))
            y = float(rng.uniform(0, ih - 1))
            anns.append({"image_id": img, "category_id": 7,
                         "bbox": [x, y, float(rng.uniform(0.5, iw - x)),
                                  float(rng.uniform(0.5, ih - y))]})
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, 7, "centroid", G)
        assert hm.grid.sum() == len(aset.annotations)
        perm = coco_audit.parse_annotations(doc(IMAGES, anns[::-1], CATS))
        np.testing.assert_array_equal(
            coco_audit.heatmap(perm, 7, "centroid", G).grid, hm.grid)

    def test_scale_invariance(self):
        anns = [{"image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40]}]
        big_images = [{"id": 1, "width": 300, "height": 300}]
        big_anns = [{"image_id": 1, "category_id": 7, "bbox": [30, 60, 90, 120]}]
        a = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        b = coco_audit.parse_annotations(doc(big_images, big_anns, CATS))
        for mode in ("centroid", "bbox"):
            np.testing.assert_array_equal(
                coco_audit.heatmap(a, 7, mode, 8).grid,
                coco_audit.heatmap(b, 7, mode, 8).grid)


class TestBBox:
    def test_full_image_bbox_all_cells(self):
        anns = [{"image_id": 1, "category_id": 7, "bbox": [0, 0, 100, 100]}]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, 7, "bbox", 4)
        np.testing.assert_array_equal(hm.grid, np.ones((4, 4)))

    def test_tiny_bbox_single_cell(self):
        anns = [{"image_id": 1, "category_id": 7, "bbox": [30, 55, 2, 2]}]
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, 7, "bbox", 4)
        assert hm.grid.sum() == 1
        assert hm.grid[2, 1] == 1

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        G = int(rng.integers(2, 12))
        anns = []
        for _ in range(rng.integers(1, 15)):
            x = float(rng.uniform(0, 90)); y = float(rng.uniform(0, 90))
            anns.append({"image_id": 1, "category_id": 7,
                         "bbox": [x, y, float(rng.uniform(1, 100 - x)),
                                  float(rng.uniform(1, 100 - y))]})
        aset = coco_audit.parse_annotations(doc(IMAGES, anns, CATS))
        hm = coco_audit.heatmap(aset, 7, "bbox", G)
        ref = np.zeros((G, G))
        for ann in aset.annotations:
            x, y, w, h = ann.bbox
            u0, u1, v0, v1 = x / 100, (x + w) / 100, y / 100, (y + h) / 100
            cells = [(gy, gx) for gy in range(G) for gx in range(G)
                     if u0 <= (gx + 0.5) / G <= u1
                     and v0 <= (gy + 0.5) / G <= v1]
            if cells:
                for gy, gx in cells:
                    ref[gy, gx] += 1
            else:
                ref[min(int((v0 + v1) / 2 * G), G - 1),
                    min(int((u0 + u1) / 2 * G), G - 1)] += 1
        np.testing.assert_array_equal(hm.grid, ref)


class TestExport:
    def test_all_zero_pgm(self, tmp_path):
        hm = coco_audit.Heatmap(np.zeros((4, 4)), "centroid", "widget", 0)
        coco_audit.write_heatmap_pgm(hm, tmp_path / "zero.pgm")
        img = netpbm.read_pnm(tmp_path / "zero.pgm")
        np.testing.assert_array_equal(img, np.zeros((4, 4), dtype=np.uint8))

    def test_single_cell_full_scale(self, tmp_path):
        grid = np.zeros((4, 4)); grid[1, 2] = 5
        hm = coco_audit.Heatmap(grid, "centroid", "widget", 5)
        coco_audit.write_heatmap_pgm(hm, tmp_path / "one.pgm")
        img = netpbm.read_pnm(tmp_path / "one.pgm")
        assert img[1, 2] == 255
        assert img.sum() == 255

    def test_csv_roundtrip(self, tmp_path):
        grid = np.arange(16, dtype=np.float64).reshape(4, 4)
        hm = coco_audit.Heatmap(grid, "bbox", "widget", 16)
        coco_audit.write_heatmap_pgm(hm, tmp_path / "grid.pgm")
        with open(tmp_path / "grid.csv", newline="") as f:
            back = np.array([[float(v) for v in row]
                             for row in csv.reader(f)])
        np.testing.assert_array_equal(back, grid)
