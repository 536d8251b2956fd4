"""The benchmark's evaluator against the repository's triple-loop oracle."""

import math

import numpy as np
import pytest

import evaluator
import gradshade as gs
import oracles
from gradshade.brdf import material_from_raw


def _scene(rng, mode, height, width, env_h, env_w, regions=1):
    n = rng.standard_normal((height, width, 3))
    n[..., 2] = np.abs(n[..., 2]) + 0.1
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    mask = rng.random((height, width)) < 0.8
    mask[0, 0] = True
    n[~mask] = 0.0
    raws = []
    for _ in range(regions):
        raw = np.empty((3, 3, 2, 6))
        raw[:, :, 0] = rng.uniform(-1.2, 1.2, (3, 3, 6))
        raw[:, :, 1] = rng.uniform(0.3, 3.0, (3, 3, 6))
        raws.append(material_from_raw(raw.reshape(-1)))
    seg = None
    if regions > 1:
        ids = np.where(mask, rng.integers(0, regions, mask.shape), -1).astype(np.int32)
        seg = gs.SegmentationMask(ids, regions)
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (env_h, env_w, 3)))
    return gs.RenderScene(gs.NormalMap(n, mask), gs.Camera(mode, width, height, 63.0), env, tuple(raws), seg)


@pytest.mark.parametrize("mode", ["orthographic", "pinhole"])
@pytest.mark.parametrize("regions", [1, 2])
def test_evaluator_matches_oracle(mode, regions):
    worst = 0.0
    for i in range(6):
        rng = np.random.default_rng(900 + i)
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        scene = _scene(rng, mode, h, w, int(rng.integers(2, 5)), int(rng.integers(2, 9)), regions)
        ref = oracles.render_scene(scene)
        mine = evaluator.SceneEvaluator(scene).image()
        worst = max(worst, np.abs(mine - ref).max() / max(np.abs(ref).max(), 1e-30))
    assert worst < 1e-12


def test_spline_basis_matches_recursion():
    t = np.linspace(0.0, 1.0, 257)
    mine = evaluator.spline_basis(t * (math.pi / 2.0))
    ref = np.array([oracles.basis_weights(float(v)) for v in t])
    assert np.abs(mine - ref).max() < 1e-14


def test_light_table_matches_loop_definition():
    dirs, weights = evaluator.light_table(3, 5)
    ref = oracles.light_directions(3, 5)
    assert np.allclose(dirs, [d for d, _ in ref], rtol=0, atol=1e-15)
    assert np.allclose(weights, [w for _, w in ref], rtol=0, atol=1e-15)
