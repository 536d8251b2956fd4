"""Differentiable shading with data-driven reflectance.

Forward renders an image from a normal map, per-region BRDF parameters, and an
HDR environment map; exposes analytic gradients with respect to all three; and
inverts the process (per-block Gauss-Newton for normals and materials, L-BFGS
for the light) so a photographed object can be relit or given a new material.
"""

from .brdf import DsbrdfMaterial, ShadingOverflowError, default_bounds
from .core import (
    Camera,
    DegenerateVectorError,
    EnvironmentMap,
    NormalMap,
    RadianceImage,
    SegmentationMask,
)
from .fixtures import default_blob_env, preset_materials, sphere_normal_map
from .grad import NonFiniteGradientError, SceneGradients, backward, fd_check
from .invert import (
    InverseProblem,
    OptimizerConfig,
    SolveResult,
    edit_material,
    lbfgs_minimize,
    solve,
)
from .metrics import LdrImage, l2_metric, ssim, tone_map
from .render import LightTable, RenderScene, build_light_table, render, render_reflectance_map
from .spline import QuadBSpline, RankDeficientError

__version__ = "0.1.0"

__all__ = [
    "Camera",
    "DegenerateVectorError",
    "DsbrdfMaterial",
    "EnvironmentMap",
    "InverseProblem",
    "LdrImage",
    "LightTable",
    "NonFiniteGradientError",
    "NormalMap",
    "OptimizerConfig",
    "QuadBSpline",
    "RadianceImage",
    "RankDeficientError",
    "RenderScene",
    "SceneGradients",
    "SegmentationMask",
    "ShadingOverflowError",
    "SolveResult",
    "backward",
    "build_light_table",
    "default_blob_env",
    "default_bounds",
    "edit_material",
    "fd_check",
    "l2_metric",
    "lbfgs_minimize",
    "preset_materials",
    "render",
    "render_reflectance_map",
    "solve",
    "sphere_normal_map",
    "ssim",
    "tone_map",
    "__version__",
]
