"""Forward rendering of DSBRDF scenes under equirectangular environment light.

The image estimate is a sum over every light-table texel (eq. of motion for
this whole package):

    I_k(p) = sum_i f_k(p, i) * L_k(i) * max(0, n_p . omega_i) * w_i

with solid-angle weights w_i = sin(theta_i) * (pi / H_L) * (2 pi / W_L) taken
at texel centres. Rendering is deterministic: for a fixed scene the output is
bit-identical no matter how many worker threads are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _shading
from .brdf import DsbrdfMaterial
from .core import (
    BACKGROUND_REGION,
    Camera,
    EnvironmentMap,
    NormalMap,
    RadianceImage,
    SegmentationMask,
    _checked_array,
    view_direction_grid,
)


@dataclass(frozen=True)
class LightTable:
    """Directions and solid-angle weights for every texel of an env map grid."""

    directions: np.ndarray  # (H_L, W_L, 3) unit vectors
    weights: np.ndarray  # (H_L, W_L) positive

    def __post_init__(self):
        object.__setattr__(self, "directions", _checked_array("light directions", self.directions, (None, None, 3)))
        object.__setattr__(self, "weights", _checked_array("light weights", self.weights, self.directions.shape[:2]))


def build_light_table(height: int, width: int) -> LightTable:
    """Light table for an (height x width) equirectangular map.

    Texel (h, w) looks along inclination theta = (h + 0.5) / height * pi from
    +y and azimuth phi = (w + 0.5) / width * 2 pi from +x toward +z:
    omega = (cos phi sin theta, cos theta, sin phi sin theta). The weights sum
    to 4 pi up to the midpoint-rule error of the grid.
    """
    if height < 1 or width < 1:
        raise ValueError("light table dimensions must be positive")
    theta = (np.arange(height) + 0.5) / height * math.pi
    phi = (np.arange(width) + 0.5) / width * (2.0 * math.pi)
    sin_t = np.sin(theta)
    dirs = np.empty((height, width, 3))
    dirs[:, :, 0] = sin_t[:, None] * np.cos(phi)[None, :]
    dirs[:, :, 1] = np.cos(theta)[:, None]
    dirs[:, :, 2] = sin_t[:, None] * np.sin(phi)[None, :]
    weights = np.broadcast_to(sin_t[:, None], (height, width)) * (math.pi / height) * (2.0 * math.pi / width)
    return LightTable(dirs, np.ascontiguousarray(weights))


@dataclass(frozen=True)
class RenderScene:
    """Everything needed to form an image: geometry, lighting, materials.

    With a segmentation, pixels of region r shade with materials[r]; without
    one, a single material covers the whole foreground.
    """

    normal_map: NormalMap
    camera: Camera
    env: EnvironmentMap
    materials: tuple
    segmentation: SegmentationMask | None = None

    def __post_init__(self):
        materials = tuple(self.materials)
        if not materials or not all(isinstance(m, DsbrdfMaterial) for m in materials):
            raise ValueError("materials must be a non-empty sequence of DsbrdfMaterial")
        object.__setattr__(self, "materials", materials)
        if (self.camera.image_width, self.camera.image_height) != (self.normal_map.width, self.normal_map.height):
            raise ValueError("camera image size must match the normal map")
        seg = self.segmentation
        if seg is None:
            if len(materials) != 1:
                raise ValueError("an unsegmented scene takes exactly one material")
            return
        if (seg.height, seg.width) != (self.normal_map.height, self.normal_map.width):
            raise ValueError("segmentation size must match the normal map")
        if seg.region_count != len(materials):
            raise ValueError("need exactly one material per segmentation region")
        ids = seg.region_ids
        mask = self.normal_map.mask
        if (ids[mask] == BACKGROUND_REGION).any() or (ids[~mask] != BACKGROUND_REGION).any():
            raise ValueError("segmentation foreground/background must agree with the normal map mask")


def prepare_problem(scene: RenderScene) -> _shading.ShadingProblem:
    """Flatten a scene's geometry for the shading kernel (shared with the gradient module)."""
    light_table = build_light_table(scene.env.height, scene.env.width)
    if scene.camera.mode == "orthographic":
        view = np.array([0.0, 0.0, 1.0])
    else:
        view = view_direction_grid(scene.camera)
    return _shading.prepare(
        scene.normal_map.mask,
        view,
        light_table.directions.reshape(-1, 3),
        light_table.weights.reshape(-1),
        None if scene.segmentation is None else scene.segmentation.region_ids,
    )


def render_linear(scene: RenderScene, *, threads: int = 1) -> np.ndarray:
    """Forward render to a raw (H, W, 3) float array (background stays zero).

    Unlike :func:`render` this does not reject negative radiance, which
    materials with negative amplitudes can produce.
    """
    mask = scene.normal_map.mask
    fg = _shading.forward(
        prepare_problem(scene), scene.normal_map.normals[mask], scene.materials, scene.env.radiance.reshape(-1, 3),
        threads=threads,
    )
    out = np.zeros((scene.normal_map.height, scene.normal_map.width, 3))
    out[mask] = fg
    return out


def render(scene: RenderScene, *, threads: int = 1) -> RadianceImage:
    """Forward render a scene; see the module docstring for the image model."""
    return RadianceImage(render_linear(scene, threads=threads))


def render_reflectance_map(
    material: DsbrdfMaterial,
    env: EnvironmentMap,
    resolution: int = 128,
    *,
    threads: int = 1,
) -> RadianceImage:
    """Render the material on an orthographic unit sphere under ``env``.

    The classic summary image of a material: every visible normal direction
    appears exactly once.
    """
    from .fixtures import sphere_normal_map

    scene = RenderScene(
        normal_map=sphere_normal_map(resolution),
        camera=Camera("orthographic", resolution, resolution),
        env=env,
        materials=(material,),
    )
    return render(scene, threads=threads)
