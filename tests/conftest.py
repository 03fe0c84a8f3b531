from __future__ import annotations

import numpy as np
import pytest

from jsrbound import MatrixSet
import jsrbound.geometry as geometry_module
from jsrbound.geometry import _offset_ring, kind_normalize


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240229)


def random_set(rng: np.random.Generator, dim: int, r: int,
               scale: float = 1.0) -> MatrixSet:
    mats = rng.uniform(-scale, scale, size=(r, dim, dim))
    return MatrixSet.from_arrays(mats)


GOLDEN_PAIR = MatrixSet.from_arrays(
    [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]
)

QUARTER_TURN = MatrixSet.from_arrays([[[0.0, -1.0], [1.0, 0.0]]])

DIAGONAL_PAIR = MatrixSet.from_arrays(
    [[[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 5.0]]]
)

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def one_scale_search(value_fn, x0: np.ndarray, v0: np.ndarray, kind,
                     step: float):
    """The reference for ``geometry.refine_minimum``: the same pattern
    search in lockstep, one ring scale per start and value_fn call, every
    start run to its end.  Reads _MIN_STEP and _MAX_ROUNDS at call time.
    Returns the end points, their values and, for each start, whether
    each of its rounds moved."""
    xs = np.array(x0, dtype=float)
    best = np.array(v0, dtype=float)
    k, d = xs.shape
    steps = np.full(k, float(step))
    rings = np.stack([_offset_ring(x) for x in xs])
    moves: list[list[bool]] = [[] for _ in range(k)]
    for _ in range(geometry_module._MAX_ROUNDS):
        live = np.flatnonzero(steps >= geometry_module._MIN_STEP)
        if live.size == 0:
            break
        cand = kind_normalize(
            xs[live, None, :] + steps[live, None, None] * rings[live], kind)
        vals = value_fn(cand.reshape(-1, d)).reshape(live.size, -1)
        pick = np.argmin(vals, axis=1)
        low = vals[np.arange(live.size), pick]
        moved = low < best[live]
        steps[live[~moved]] *= 0.5
        for row, j in enumerate(live):
            moves[j].append(bool(moved[row]))
            if moved[row]:
                xs[j] = cand[row, pick[row]]
                best[j] = low[row]
                rings[j] = _offset_ring(xs[j])
    return xs, best, moves


@pytest.fixture
def small_chunks(monkeypatch) -> None:
    """Shrink the engine's block to 64 floats so every size is chunked."""
    monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)


@pytest.fixture
def small_radius_blocks(monkeypatch) -> None:
    """Shrink radius_profile's block to 64 floats: mostly one point a block."""
    monkeypatch.setattr("jsrbound.geometry._BLOCK_FLOATS", 64)


@pytest.fixture(scope="session")
def level9_icosphere() -> tuple[np.ndarray, list[float]]:
    """The level-9 icosphere, built once per session by
    ``icosphere(_LEVEL9_RADIUS)``, and the covering radius that
    ``_covering_radius`` measures on each of levels 0..9 on the way."""
    radii: list[float] = []
    measure = geometry_module._covering_radius
    subdivide = geometry_module._subdivide

    def recorded(verts, faces):
        if not radii:
            radii.append(measure(verts, faces))
        out = subdivide(verts, faces)
        radii.append(measure(out[0], out[1]))
        return out

    # Build afresh, and put the build cache back as it was, so that it
    # keeps no second level-9 copy.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry_module, "_icosphere_build", None)
        mp.setattr(geometry_module, "_subdivide", recorded)
        verts = geometry_module.icosphere(geometry_module._LEVEL9_RADIUS)
    return verts, radii
