from __future__ import annotations

import numpy as np
import pytest

from jsrbound import MatrixSet, NormKind
import jsrbound.geometry as geometry_module


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


@pytest.fixture
def small_chunks(monkeypatch) -> None:
    """Shrink the engine's block to 64 floats so every size is chunked."""
    monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)


@pytest.fixture
def small_radius_blocks(monkeypatch) -> None:
    """Shrink radius_profile's block to 64 floats: mostly one point a block."""
    monkeypatch.setattr("jsrbound.geometry._BLOCK_FLOATS", 64)


@pytest.fixture(scope="session")
def level9_icosphere() -> tuple[np.ndarray, list[float],
                                geometry_module._Net]:
    """The level-9 icosphere, built once per session by
    ``icosphere(_LEVEL9_RADIUS)``, the covering radius that
    ``_covering_radius`` measures on each of levels 0..9 on the way, and
    the level-9 _Net on that build."""
    radii: list[float] = []
    measure = geometry_module._covering_radius
    subdivide = geometry_module._subdivide

    def recorded(verts, faces, last):
        if not radii:
            radii.append(measure(verts, faces))
        out = subdivide(verts, faces, last)
        # The last level is built without its faces: build them here.
        built = subdivide(verts, faces, False)[1] if last else out[1]
        radii.append(measure(out[0], built))
        return out

    # Build afresh, and put the build cache back as it was, so that it
    # keeps no second level-9 copy.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry_module, "_icosphere_build", None)
        mp.setattr(geometry_module, "_subdivide", recorded)
        verts = geometry_module.icosphere(geometry_module._LEVEL9_RADIUS)
        net = geometry_module._net_at.__wrapped__(3, NormKind.L2, 9)
    return verts, radii, net
