"""Landmark selection and subarea division (Section IV-A of the paper).

The network planner:

1. collects node visiting history over candidate *places*;
2. keeps the top-``n`` most frequently visited places as candidate landmarks;
3. prunes candidates pairwise: whenever two candidates are closer than
   ``d_min``, the less-visited one is removed;
4. assigns every point of the area to its nearest surviving landmark —
   yielding the subarea division (each subarea contains exactly one
   landmark, no overlap, area between two landmarks split evenly).

The nearest-landmark rule implements the paper's division rules exactly: it
is the Voronoi partition of the plane by landmark sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class Place:
    """A candidate landmark site: location + observed visit count."""

    place_id: int
    x: float
    y: float
    visits: int

    def distance_to(self, other: "Place") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


def select_landmarks(
    places: Sequence[Place],
    *,
    top_n: Optional[int] = None,
    d_min: float = 0.0,
) -> List[Place]:
    """Select landmark sites from candidate popular places.

    Parameters
    ----------
    places:
        Candidate places with visit counts.
    top_n:
        Keep at most this many of the most-visited places *before* distance
        pruning (None = keep all).
    d_min:
        Minimum allowed distance between any two landmarks.  For every pair
        closer than ``d_min`` the less-frequently-visited one is removed
        (the paper's pruning rule).

    Returns
    -------
    Surviving landmarks sorted by decreasing visit count.  The result is
    guaranteed pairwise >= ``d_min`` apart.
    """
    require_non_negative("d_min", d_min)
    ranked = sorted(places, key=lambda p: (-p.visits, p.place_id))
    if top_n is not None:
        require_positive("top_n", top_n)
        ranked = ranked[:top_n]
    if d_min <= 0:
        return ranked
    kept: List[Place] = []
    for cand in ranked:  # most-visited first => it wins every conflict
        if all(cand.distance_to(k) >= d_min for k in kept):
            kept.append(cand)
    return kept


class SubareaMap:
    """Nearest-landmark (Voronoi) partition of the plane.

    Provides ``subarea_of(x, y)`` lookups plus adjacency information used by
    the router to know which landmarks are geographic neighbours.
    """

    def __init__(self, landmarks: Sequence[Place]) -> None:
        if not landmarks:
            raise ValueError("need at least one landmark")
        from scipy.spatial import cKDTree  # slow to import; only this needs it

        self.landmarks = list(landmarks)
        self._ids = [p.place_id for p in landmarks]
        self._points = np.array([[p.x, p.y] for p in landmarks], dtype=float)
        self._tree = cKDTree(self._points)

    @property
    def n_subareas(self) -> int:
        return len(self.landmarks)

    def subarea_of(self, x: float, y: float) -> int:
        """Landmark id owning the subarea containing ``(x, y)``."""
        _, idx = self._tree.query([x, y])
        return self._ids[int(idx)]

    def subareas_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`subarea_of` for an ``[n, 2]`` array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape [n, 2]")
        _, idx = self._tree.query(pts)
        ids = np.asarray(self._ids)
        return ids[idx]

    def adjacency(self, resolution: int = 64) -> Dict[int, set]:
        """Approximate Voronoi adjacency via grid sampling.

        Two subareas are adjacent when grid-neighbouring sample points fall
        in different subareas.  ``resolution`` controls the sampling grid.
        """
        require_positive("resolution", resolution)
        lo = self._points.min(axis=0) - 1.0
        hi = self._points.max(axis=0) + 1.0
        xs = np.linspace(lo[0], hi[0], resolution)
        ys = np.linspace(lo[1], hi[1], resolution)
        gx, gy = np.meshgrid(xs, ys)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        owner = self.subareas_of(grid).reshape(resolution, resolution)
        adj: Dict[int, set] = {pid: set() for pid in self._ids}
        horiz = owner[:, :-1] != owner[:, 1:]
        vert = owner[:-1, :] != owner[1:, :]
        for a, b in zip(owner[:, :-1][horiz].ravel(), owner[:, 1:][horiz].ravel()):
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
        for a, b in zip(owner[:-1, :][vert].ravel(), owner[1:, :][vert].ravel()):
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
        return adj


def render_subareas_ascii(
    subareas: SubareaMap, *, width: int = 48, height: int = 18
) -> str:
    """Render the subarea division as an ASCII map (Fig. 5 / Fig. 15a style).

    Each grid cell shows the last digit of the owning landmark's id;
    landmark sites are marked with ``*``.  Useful for eyeballing a
    deployment plan in a terminal.
    """
    require_positive("width", width)
    require_positive("height", height)
    pts = subareas._points  # noqa: SLF001 - rendering its own internals
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    xs = np.linspace(lo[0], hi[0], width)
    ys = np.linspace(hi[1], lo[1], height)  # top row = max y
    rows: List[str] = []
    for y in ys:
        grid = np.column_stack([xs, np.full_like(xs, y)])
        owners = subareas.subareas_of(grid)
        rows.append("".join(str(int(o) % 10) for o in owners))
    # overlay landmark sites
    chars = [list(r) for r in rows]
    for place in subareas.landmarks:
        col = int(round((place.x - lo[0]) / (hi[0] - lo[0]) * (width - 1)))
        row = int(round((hi[1] - place.y) / (hi[1] - lo[1]) * (height - 1)))
        if 0 <= row < height and 0 <= col < width:
            chars[row][col] = "*"
    return "\n".join("".join(r) for r in chars)


def places_from_visit_counts(
    coords: Dict[int, Tuple[float, float]],
    visit_counts: Dict[int, int],
) -> List[Place]:
    """Build :class:`Place` candidates from coordinate and count mappings."""
    out = []
    for pid, (x, y) in coords.items():
        out.append(Place(place_id=pid, x=x, y=y, visits=int(visit_counts.get(pid, 0))))
    return out


def plan_landmarks(
    coords: Dict[int, Tuple[float, float]],
    visit_counts: Dict[int, int],
    *,
    top_n: Optional[int] = None,
    d_min: float = 0.0,
) -> SubareaMap:
    """End-to-end Section IV-A: select landmarks and return the subarea map."""
    places = places_from_visit_counts(coords, visit_counts)
    chosen = select_landmarks(places, top_n=top_n, d_min=d_min)
    return SubareaMap(chosen)
