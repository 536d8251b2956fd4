"""Command-line entry points.

Subcommands map files onto library calls: ``render`` and ``edit`` produce PFM
radiance (plus optional tone-mapped previews), ``invert`` recovers scene
factors from a photograph, ``gradcheck`` compares analytic against numerical
gradients, ``metrics`` scores two renders, and ``fixtures`` materializes the
built-in test scene.

Exit codes: 0 on success, 2 for bad usage or unreadable/inconsistent inputs,
3 when the numerics fail: shading overflow, a non-finite gradient, or a
``gradcheck`` error beyond tolerance. Every run is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from .brdf import ShadingOverflowError
from .core import BACKGROUND_REGION, Camera, EnvironmentMap, RadianceImage, SegmentationMask
from .fixtures import default_blob_env, preset_materials, sphere_normal_map
from .grad import NonFiniteGradientError, fd_check
from .invert import InverseProblem, OptimizerConfig, edit_material, solve
from .io import (
    MalformedFileError,
    read_material,
    read_normal_png16,
    read_pfm,
    read_segmentation_png16,
    write_material,
    write_normal_png16,
    write_pfm,
    write_preview_png,
    write_segmentation_png16,
)
from .metrics import auto_exposure, check_exposure, l2_metric, ssim, tone_map
from .render import RenderScene, render

# gradcheck's groups and gates, in the order it checks them: a group's seed follows from its place
FD_TOLERANCES = {"light": 1e-9, "normal": 1e-4, "material": 1e-4}
_FD_DEFAULTS = inspect.signature(fd_check).parameters


def _parse_camera(spec: str, width: int, height: int) -> Camera:
    """`ortho` or `pinhole:FOV` with FOV in degrees."""
    if spec == "ortho":
        return Camera("orthographic", width, height)
    if spec.startswith("pinhole:"):
        try:
            fov = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad camera spec {spec!r}: {exc}") from exc
        return Camera("pinhole", width, height, fov)
    raise ValueError(f"bad camera spec {spec!r}; expected 'ortho' or 'pinhole:FOV'")


def _read_segmentation(path, materials) -> SegmentationMask | None:
    """One region per material; a region may have no pixels."""
    if not path:
        return None
    segmentation = read_segmentation_png16(path)
    if segmentation.region_count > len(materials):
        raise ValueError(f"expected {segmentation.region_count} materials, got {len(materials)}")
    return SegmentationMask(segmentation.region_ids, len(materials))


def _load_scene(args) -> RenderScene:
    """The scene of ``render`` and ``edit``; a bad ``--exposure`` fails first, with or without ``--preview``."""
    if args.exposure is not None:
        check_exposure(args.exposure)
    normal_map = read_normal_png16(args.normals)
    env = EnvironmentMap(read_pfm(args.env))
    materials = tuple(read_material(p) for p in args.material)
    segmentation = _read_segmentation(args.segmentation, materials)
    camera = _parse_camera(args.camera, normal_map.width, normal_map.height)
    return RenderScene(normal_map, camera, env, materials, segmentation)


def _write_radiance(args, image: RadianceImage) -> None:
    """The PFM and the optional preview; the preview is tone-mapped first, so a bad exposure writes nothing."""
    preview = tone_map(image, exposure=args.exposure) if args.preview else None
    write_pfm(args.out, image.pixels)
    if preview is not None:
        write_preview_png(args.preview, preview)


def _cmd_render(args) -> int:
    scene = _load_scene(args)
    _write_radiance(args, render(scene, threads=args.threads))
    return 0


def _cmd_edit(args) -> int:
    scene = _load_scene(args)
    replacements = tuple(read_material(p) for p in args.target_material)
    image = edit_material(scene, replacements, threads=args.threads)
    _write_radiance(args, image)
    return 0


def _cmd_invert(args) -> int:
    target = RadianceImage(read_pfm(args.target))
    normal_map = read_normal_png16(args.init_normals)
    env = EnvironmentMap(read_pfm(args.init_env))
    materials = tuple(read_material(p) for p in args.init_material)
    segmentation = _read_segmentation(args.segmentation, materials)
    camera = _parse_camera(args.camera, normal_map.width, normal_map.height)
    free = tuple(tok.strip() for tok in args.free.split(",") if tok.strip())
    problem = InverseProblem(
        target=target,
        normal_map=normal_map,
        env=env,
        materials=materials,
        camera=camera,
        segmentation=segmentation,
        a=args.a,
        b=args.b,
        free_groups=frozenset(free) if free else frozenset(),
    )
    config = OptimizerConfig(
        inner_iters_per_group=args.inner_iters,
        max_cycles=args.cycles,
        rel_tol=args.rel_tol,
        threads=args.threads,
    )
    result = solve(problem, config)
    prefix = args.out_prefix
    parent = Path(prefix).parent
    if str(parent) not in ("", "."):
        parent.mkdir(parents=True, exist_ok=True)
    write_normal_png16(f"{prefix}normals.png", result.normal_map)
    write_pfm(f"{prefix}env.pfm", result.env.radiance)
    for r, mat in enumerate(result.materials):
        write_material(f"{prefix}material_{r}.json", mat)
    if args.trace:
        lines = [
            f"{t.cycle} {t.group} {t.iteration} {t.objective:.17g} {t.grad_norm:.17g}"
            for t in result.trace
        ]
        Path(args.trace).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")
    print(
        f"cycles={result.cycles} objective {result.initial_objective:.6g} -> {result.final_objective:.6g}"
    )
    return 0


def _default_check_scene() -> RenderScene:
    normal_map = sphere_normal_map(8)
    env = default_blob_env(8, 16)
    material = preset_materials()["glossy"]
    camera = Camera("orthographic", normal_map.width, normal_map.height)
    return RenderScene(normal_map, camera, env, (material,))


def _cmd_gradcheck(args) -> int:
    scene = _default_check_scene()
    groups = args.group or list(FD_TOLERANCES)
    failed = False
    for i, group in enumerate(groups):
        report = fd_check(scene, group, trials=args.trials, seed=args.seed + 101 * i)
        tol = FD_TOLERANCES[group]
        ok = report.max_rel_error < tol
        failed |= not ok
        status = "ok" if ok else "FAIL"
        print(
            f"group={group} step={report.step:g} trials={len(report.trials)} "
            f"max_rel_error={report.max_rel_error:.3e} tol={tol:g} {status}"
        )
    return 3 if failed else 0


def _cmd_metrics(args) -> int:
    ref = RadianceImage(read_pfm(args.reference))
    test = RadianceImage(read_pfm(args.test))
    exposure = args.exposure if args.exposure is not None else auto_exposure(ref)
    a = tone_map(ref, exposure=exposure)
    b = tone_map(test, exposure=exposure)
    mask = None
    if args.mask:
        mask = read_segmentation_png16(args.mask).region_ids >= 0
    print(f"l2={l2_metric(a, b, mask):g} ssim={ssim(a, b):g}")
    return 0


def _cmd_fixtures(args) -> int:
    normal_map = sphere_normal_map(args.resolution)
    env = default_blob_env(args.env_height, 2 * args.env_height)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_normal_png16(out / "sphere_normals.png", normal_map)
    write_pfm(out / "env.pfm", env.radiance)
    ids = np.where(normal_map.mask, 0, BACKGROUND_REGION).astype(np.int32)
    write_segmentation_png16(out / "sphere_segmentation.png", SegmentationMask(ids, 1))
    for name, material in sorted(preset_materials().items()):
        write_material(out / f"material_{name}.json", material)
    print(f"wrote fixtures to {out}")
    return 0


def _add_scene_flags(sub) -> None:
    sub.add_argument("--normals", required=True, help="16-bit RGBA normal map PNG")
    sub.add_argument("--env", required=True, help="environment map PFM")
    sub.add_argument("--material", action="append", required=True, help="material JSON (repeat per region)")
    sub.add_argument("--segmentation", help="16-bit region-id PNG (optional)")
    sub.add_argument("--camera", default="ortho", help="'ortho' or 'pinhole:FOV' (degrees)")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", required=True, help="output radiance PFM")
    sub.add_argument("--preview", help="optional 8-bit tone-mapped PNG")
    sub.add_argument("--exposure", type=float, help="preview exposure (default: auto)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradshade", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="worker cap (outputs do not depend on it)")
    cmds = parser.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("render", help="forward-render a scene to PFM")
    _add_scene_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_render)

    p = cmds.add_parser("edit", help="re-render a scene with substituted materials")
    _add_scene_flags(p)
    p.add_argument("--target-material", action="append", required=True, help="replacement material JSON (repeat per region)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_edit)

    p = cmds.add_parser("invert", help="recover normals/light/material from a photograph")
    p.add_argument("--target", required=True, help="observed radiance PFM")
    p.add_argument("--init-normals", required=True)
    p.add_argument("--init-env", required=True)
    p.add_argument("--init-material", action="append", required=True)
    p.add_argument("--segmentation")
    p.add_argument("--camera", default="ortho")
    free = ",".join(sorted(InverseProblem.free_groups))
    p.add_argument("--free", default=free, help="comma-separated groups to optimize")
    p.add_argument("--a", type=float, default=InverseProblem.a, help="normal prior weight")
    p.add_argument("--b", type=float, default=InverseProblem.b, help="illumination prior weight")
    p.add_argument("--cycles", type=int, default=OptimizerConfig.max_cycles)
    p.add_argument("--inner-iters", type=int, default=OptimizerConfig.inner_iters_per_group)
    p.add_argument("--rel-tol", type=float, default=OptimizerConfig.rel_tol)
    p.add_argument("--trace", help="write one line per accepted step")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_invert)

    p = cmds.add_parser("gradcheck", help="finite-difference audit of the analytic gradients")
    p.add_argument("--seed", type=int, default=_FD_DEFAULTS["seed"].default)
    p.add_argument("--trials", type=int, default=_FD_DEFAULTS["trials"].default, help="probed coordinates per group")
    p.add_argument("--group", action="append", choices=list(FD_TOLERANCES))
    p.set_defaults(func=_cmd_gradcheck)

    p = cmds.add_parser("metrics", help="tone-mapped L2 and SSIM between two PFMs")
    p.add_argument("reference")
    p.add_argument("test")
    p.add_argument("--mask", help="restrict L2 to labeled pixels of this segmentation PNG")
    p.add_argument("--exposure", type=float, help="shared exposure (default: auto from reference)")
    p.set_defaults(func=_cmd_metrics)

    p = cmds.add_parser("fixtures", help="write the built-in sphere/env/material fixture set")
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=64, help="sphere image side")
    p.add_argument("--env-height", type=int, default=16, help="environment rows (columns = 2x)")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShadingOverflowError, NonFiniteGradientError) as exc:
        print(f"gradshade: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MalformedFileError, ValueError, OSError) as exc:
        print(f"gradshade: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
