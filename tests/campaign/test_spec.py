"""Tests for campaign spec expansion, filtering, and content hashing."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, canonical_json, content_hash
from repro.errors import CampaignError


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="test",
        kind="energy",
        axes={"emt": ("none", "dream"), "voltage": (0.9, 0.65, 0.5)},
        fixed={"workload": {"n_reads": 1, "n_writes": 1, "duration_s": 1e-3}},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_rejects_empty_name_and_kind(self):
        with pytest.raises(CampaignError):
            small_spec(name="")
        with pytest.raises(CampaignError):
            small_spec(name="a/b")
        with pytest.raises(CampaignError):
            small_spec(kind="")

    def test_rejects_empty_axes(self):
        with pytest.raises(CampaignError):
            small_spec(axes={})
        with pytest.raises(CampaignError):
            small_spec(axes={"emt": ()})

    def test_rejects_axis_fixed_collision(self):
        with pytest.raises(CampaignError):
            small_spec(fixed={"emt": "none"})

    def test_rejects_unserialisable_parameter(self):
        spec = small_spec(fixed={"callback": object()})
        with pytest.raises(CampaignError):
            spec.expand()[0].content_hash()


class TestExpansion:
    def test_cartesian_product_in_axis_order(self):
        spec = small_spec()
        points = spec.expand()
        assert spec.grid_size == 6
        assert len(points) == 6
        assert [p.coords for p in points[:3]] == [
            {"emt": "none", "voltage": 0.9},
            {"emt": "none", "voltage": 0.65},
            {"emt": "none", "voltage": 0.5},
        ]
        assert points[3].coords == {"emt": "dream", "voltage": 0.9}

    def test_params_merge_fixed_and_coords(self):
        point = small_spec().expand()[0]
        assert point.params["emt"] == "none"
        assert point.params["workload"]["n_reads"] == 1


class TestContentHash:
    def test_same_params_same_hash(self):
        a, b = small_spec().expand()[0], small_spec().expand()[0]
        assert a.content_hash() == b.content_hash()

    def test_axis_vs_fixed_does_not_matter(self):
        """Reshaping a spec must not invalidate stored results."""
        wide = small_spec(axes={"emt": ("none",), "voltage": (0.9,)})
        narrow = small_spec(
            axes={"voltage": (0.9,)},
            fixed={
                "emt": "none",
                "workload": {"n_reads": 1, "n_writes": 1, "duration_s": 1e-3},
            },
        )
        assert (
            wide.expand()[0].content_hash() == narrow.expand()[0].content_hash()
        )

    def test_different_params_different_hash(self):
        points = small_spec().expand()
        hashes = {p.content_hash() for p in points}
        assert len(hashes) == len(points)

    def test_kind_is_part_of_identity(self):
        a = small_spec().expand()[0]
        b = small_spec(kind="montecarlo").expand()[0]
        assert a.content_hash() != b.content_hash()

    def test_canonical_json_normalises_containers_and_key_order(self):
        assert canonical_json({"b": (1, 2), "a": 1}) == '{"a":1,"b":[1,2]}'
        assert content_hash({"a": 1, "b": [1, 2]}) == content_hash(
            {"b": (1, 2), "a": 1}
        )

    def test_numpy_values_hash_like_python_values(self):
        """Axes built with np.linspace must hash (and store) identically
        to hand-written literals."""
        import numpy as np

        assert canonical_json(np.float64(0.65)) == canonical_json(0.65)
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.bool_(True)) == canonical_json(True)
        assert canonical_json(np.array([0.5, 0.9])) == canonical_json(
            [0.5, 0.9]
        )
        assert canonical_json(np.array(0.65)) == canonical_json(0.65)
        numeric = small_spec(
            axes={"emt": ("none",), "voltage": tuple(np.linspace(0.9, 0.9, 1))}
        )
        literal = small_spec(axes={"emt": ("none",), "voltage": (0.9,)})
        assert (
            numeric.expand()[0].content_hash()
            == literal.expand()[0].content_hash()
        )
