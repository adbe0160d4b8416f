"""Declarative description of a design-space-exploration campaign.

A :class:`CampaignSpec` names the grid the paper's evaluation walks —
supply voltage x EMT x application x fault model x record x SoC
configuration — as a set of *named axes* whose Cartesian product is the
campaign's point set.  Each :class:`CampaignPoint` carries every
parameter its evaluator needs and derives a stable content hash from
them, which is what the result store keys cached results by: re-running
a campaign whose points already have stored results executes nothing.

Axis values must be JSON-serialisable (numbers, strings, booleans, or
nested lists/tuples/dicts of those) so points can cross process
boundaries and hash identically across runs and platforms.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

# Canonicalisation lives in the shared serde layer since the unified
# experiment API landed; it is re-exported here — its historical home —
# so campaign callers (and the calibration cache) keep importing it from
# this module.  The implementation is byte-identical: store keys and
# cache entries written before the move stay valid.
from ..api.serde import canonical_json, content_hash
from ..errors import CampaignError

__all__ = ["CampaignPoint", "CampaignSpec", "canonical_json", "content_hash"]


@dataclass(frozen=True)
class CampaignPoint:
    """One grid point of a campaign: an evaluator kind plus parameters.

    Attributes:
        kind: evaluator registry name (see
            :mod:`repro.campaign.evaluators`).
        coords: this point's axis values, keyed by axis name.
        fixed: parameters shared by every point of the campaign.
    """

    kind: str
    coords: Mapping[str, Any]
    fixed: Mapping[str, Any]

    @property
    def params(self) -> dict[str, Any]:
        """Merged evaluator parameters (axis coordinates override fixed)."""
        return {**self.fixed, **self.coords}

    def content_hash(self) -> str:
        """Stable identity of this point's full configuration.

        Two points hash equally iff their kind and merged parameters are
        equal, regardless of which parameters were axes and which were
        fixed — so reshaping a spec does not invalidate stored results.
        """
        return content_hash({"kind": self.kind, "params": self.params})


@dataclass(frozen=True)
class CampaignSpec:
    """A named parameter grid plus the evaluator that scores each point.

    Attributes:
        name: campaign identity; the result store file is named after it.
        kind: evaluator kind applied to every point.
        axes: ordered mapping of axis name to the values it sweeps; the
            point set is the Cartesian product in axis-declaration order.
        fixed: parameters shared by all points (e.g. records, run counts,
            a serialised technology node).
    """

    name: str
    kind: str
    axes: Mapping[str, tuple]
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise CampaignError(
                f"campaign name must be a non-empty path-safe string, "
                f"got {self.name!r}"
            )
        if not self.kind:
            raise CampaignError("campaign kind must be non-empty")
        if not self.axes:
            raise CampaignError("a campaign needs at least one axis")
        for axis, values in self.axes.items():
            if not tuple(values):
                raise CampaignError(f"axis {axis!r} has no values")
            if axis in self.fixed:
                raise CampaignError(
                    f"axis {axis!r} collides with a fixed parameter"
                )

    @property
    def grid_size(self) -> int:
        """Number of grid points."""
        size = 1
        for values in self.axes.values():
            size *= len(tuple(values))
        return size

    def expand(self) -> list[CampaignPoint]:
        """Materialise the point set, in axis-product order."""
        names = list(self.axes)
        return [
            CampaignPoint(
                kind=self.kind, coords=dict(zip(names, combo)),
                fixed=dict(self.fixed),
            )
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]
