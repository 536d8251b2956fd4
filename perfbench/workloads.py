"""The benchmark workloads: inputs, the timed operation and the output checks.

Each workload has
  prepare(seed, work_dir)  in the benchmark process, before the workload
                           process starts: writes input files, if any;
  setup(seed, work_dir)    in the workload process: imports gradshade and
                           builds the in-memory inputs with its constructors;
  run(state)               the timed operation(s);
  check(state, outputs)    one list of failure messages per operation;
  describe(state)          the make-up of the inputs.
Sizes are constructor arguments so that the tests can use small scenes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

import evaluator
import inputs
import pngcodec

THREADS = 2  # one worker per core of the reference machine
KINK_MARGIN = 1e-4  # normal FD pixels keep every light this far from a kink
NORMAL_FD_STEP = 1e-6
MATERIAL_FD_STEP = 1e-5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _lit_share(normals: np.ndarray, dirs: np.ndarray) -> float:
    lit = 0
    for start in range(0, normals.shape[0], 1024):
        lit += int(np.count_nonzero(normals[start : start + 1024] @ dirs.T > 0.0))
    return lit / (normals.shape[0] * dirs.shape[0])


def _scene_makeup(scene) -> dict:
    nm = scene.normal_map
    dirs, _ = evaluator.light_table(scene.env.height, scene.env.width)
    fg = int(nm.mask.sum())
    return {
        "foreground_pixels": fg,
        "texels": dirs.shape[0],
        "pairs": fg * dirs.shape[0],
        "lit_pair_share": round(_lit_share(nm.normals[nm.mask], dirs), 4),
    }


def _sample_foreground(mask: np.ndarray, rng: np.random.Generator, count: int) -> list:
    ys, xs = np.nonzero(mask)
    pick = rng.choice(ys.size, size=min(count, ys.size), replace=False)
    return [(int(xs[i]), int(ys[i])) for i in pick]


def _check_samples(image: np.ndarray, ev: evaluator.SceneEvaluator, pixels, tol: float, what: str) -> list:
    """Sampled pixels against the evaluator, scaled by the image maximum."""
    ref = np.array([ev.pixel(px, py) for px, py in pixels])
    got = np.array([image[py, px] for px, py in pixels])
    scale = max(float(np.abs(image).max()), float(np.abs(ref).max()), 1e-30)
    err = float(np.abs(got - ref).max()) / scale
    return [] if err <= tol else [f"{what}: sampled pixels differ from the evaluator by {err:.3g} of the maximum (gate {tol:g})"]


def _check_background(image: np.ndarray, mask: np.ndarray, what: str) -> list:
    return [] if not np.any(image[~mask]) else [f"{what}: background pixels are not exactly 0"]


def ortho_scene(gs, resolution: int, env_shape: tuple):
    nm = gs.sphere_normal_map(resolution)
    return gs.RenderScene(
        nm,
        gs.Camera("orthographic", resolution, resolution),
        gs.default_blob_env(*env_shape),
        (gs.preset_materials()["glossy"],),
    )


class Workload:
    """Defaults: one operation, no input files, one worker thread.

    On a 2-core share of a busy host, 2 worker threads made the times of
    `solve_full` (hundreds of calls of a few ms, each starting a thread pool)
    and `pinhole_edit_batch` spread two to three times as wide as 1 did;
    `ortho_grad`'s one bulk call holds steady with 2.
    """

    ops = 1
    threads = 1

    def prepare(self, seed, work_dir):
        return None


def _kink_free(ev: evaluator.SceneEvaluator, px: int, py: int, margin: float) -> bool:
    """No light within ``margin`` of max(0, n.w) or of the clamp of h.n at pixel (px, py)."""
    normal = ev.scene.normal_map.normals[py, px]
    cos_i = ev.dirs @ normal
    if np.abs(cos_i).min() < margin:
        return False
    half = ev.dirs + ev.view(px, py)
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    hdn = half @ normal
    near = (np.abs(hdn - evaluator.EPS_BASE) < margin) | (np.abs(hdn - 1.0) < margin)
    return not bool((near & (cos_i > 0.0)).any())


class OrthoGrad(Workload):
    """One gs.backward of the criterion-10 scene, all three groups, seeded upstream.

    The upstream is a loss on a seeded sample of the foreground pixels, as a
    sampled-pixel photometric loss is. The backward does the same work for
    every pixel whatever its weight, and the checks need to render only the
    sampled pixels, which keeps a round short enough to repeat.
    """

    name = "ortho_grad"
    threads = THREADS
    sample_share = 1 / 16
    render_samples = 48

    def __init__(self, resolution=inputs.ORTHO_RESOLUTION, env_shape=inputs.ORTHO_ENV, fd_pixels=12):
        self.resolution, self.env_shape, self.fd_pixels = resolution, env_shape, fd_pixels

    def setup(self, seed, work_dir):
        import gradshade as gs

        r = self.resolution
        scene = ortho_scene(gs, r, self.env_shape)
        mask = scene.normal_map.mask
        rng = _rng(seed, 2)
        sampled = np.zeros_like(mask)
        for px, py in _sample_foreground(mask, rng, round(self.sample_share * mask.sum())):
            sampled[py, px] = True
        upstream = np.where(sampled[:, :, None], rng.standard_normal((r, r, 3)), 0.0)
        return {"gs": gs, "seed": seed, "scene": scene, "upstream": upstream, "sampled": sampled}

    def run(self, state):
        return {"grads": state["gs"].backward(state["scene"], state["upstream"], threads=self.threads)}

    def check(self, state, outputs):
        gs, scene, u, grads = state["gs"], state["scene"], state["upstream"], outputs["grads"]
        sampled = state["sampled"]
        fails = []
        if grads.d_normals is None or grads.d_env is None or grads.d_materials is None:
            return [["backward: a gradient group is missing"]]

        # The loss sum(u * I) needs the image only where u is not zero.
        nm = scene.normal_map
        only_sampled = gs.NormalMap(np.where(sampled[:, :, None], nm.normals, 0.0), sampled)

        def sampled_image(materials):
            part = gs.RenderScene(only_sampled, scene.camera, scene.env, materials)
            return gs.render(part, threads=self.threads).pixels

        # The forward pass behind the loss, against the evaluator (as in criterion 2).
        image = sampled_image(scene.materials)
        ev = evaluator.SceneEvaluator(scene)
        pixels = _sample_foreground(sampled, _rng(state["seed"], 1), self.render_samples)
        fails += _check_samples(image, ev, pixels, 1e-10, "render")
        fails += _check_background(image, sampled, "render")

        # The image is linear in the light: sum(u * I) = sum(d_env * L).
        lhs = float(np.sum(u * image))
        rhs = float(np.sum(grads.d_env * scene.env.radiance))
        scale = float(np.sum(np.abs(u * image)))
        if not abs(lhs - rhs) <= 1e-9 * scale:
            fails.append(f"light: sum(u*I)={lhs!r} but sum(d_env*L)={rhs!r}")

        # Normal gradients against central differences of the evaluator.
        rng = _rng(state["seed"], 3)
        dn = grads.d_normals
        floor = 1e-6 * max(1.0, float(np.abs(dn[nm.mask]).max()))
        worst = 0.0
        candidates = _sample_foreground(sampled, rng, 20 * self.fd_pixels)
        picked = [(px, py) for px, py in candidates if _kink_free(ev, px, py, KINK_MARGIN)]
        if len(picked) < self.fd_pixels:
            fails.append(f"normal: only {len(picked)} kink-free pixels among {len(candidates)} samples")
        for px, py in picked[: self.fd_pixels]:
            n = scene.normal_map.normals[py, px]
            for c in range(3):
                step = np.zeros(3)
                step[c] = NORMAL_FD_STEP
                diff = ev.pixel(px, py, n + step) - ev.pixel(px, py, n - step)
                numeric = float(u[py, px] @ diff) / (2.0 * NORMAL_FD_STEP)
                analytic = float(dn[py, px, c])
                worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor))
        if not worst <= 1e-4:
            fails.append(f"normal: worst relative error vs central differences {worst:.3g} (gate 1e-4)")

        # Material gradient along one seeded direction against the rendered loss.
        direction = rng.standard_normal(grads.d_materials.shape)
        analytic = float(np.sum(grads.d_materials * direction))
        losses = []
        for sign in (1.0, -1.0):
            mats = tuple(
                m.with_raw(m.raw + sign * MATERIAL_FD_STEP * d) for m, d in zip(scene.materials, direction)
            )
            losses.append(float(np.sum(u * sampled_image(mats))))
        numeric = (losses[0] - losses[1]) / (2.0 * MATERIAL_FD_STEP)
        floor = 1e-6 * max(1.0, float(np.sum(np.abs(grads.d_materials * direction))))
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        if not rel <= 1e-4:
            fails.append(f"material: directional derivative {analytic!r} vs central difference {numeric!r} (rel {rel:.3g}, gate 1e-4)")
        return [fails]

    def describe(self, state):
        return {"scene": _scene_makeup(state["scene"])}


class SolveFull(Workload):
    """gs.solve of the criterion-4 problem on all three groups."""

    name = "solve_full"

    def __init__(self, resolution=inputs.SOLVE_RESOLUTION, env_shape=inputs.SOLVE_ENV, max_cycles=3, inner_iters=12):
        self.resolution, self.env_shape = resolution, env_shape
        self.max_cycles, self.inner_iters = max_cycles, inner_iters

    def setup(self, seed, work_dir):
        import gradshade as gs

        r = self.resolution
        nm = gs.sphere_normal_map(r)
        env = gs.default_blob_env(*self.env_shape)
        mat = gs.preset_materials()["glossy"]
        cam = gs.Camera("orthographic", r, r)
        target = gs.render(gs.RenderScene(nm, cam, env, (mat,)))
        noise = np.random.default_rng(inputs.SOLVE_NOISE_SEED).standard_normal(nm.normals.shape)
        noisy = nm.normals + inputs.SOLVE_NOISE_SIGMA * noise
        noisy[~nm.mask] = 0.0
        norms = np.linalg.norm(noisy, axis=2, keepdims=True)
        noisy = np.where(nm.mask[:, :, None], noisy / np.where(norms == 0, 1.0, norms), 0.0)
        problem = gs.InverseProblem(
            target=target,
            normal_map=gs.NormalMap(noisy, nm.mask),
            env=gs.EnvironmentMap(env.radiance * inputs.SOLVE_ENV_SCALE),
            materials=(mat,),
            camera=cam,
        )
        config = gs.OptimizerConfig(
            max_cycles=self.max_cycles, inner_iters_per_group=self.inner_iters, rel_tol=1e-8, threads=self.threads
        )
        return {"gs": gs, "seed": seed, "problem": problem, "config": config}

    def run(self, state):
        return {"result": state["gs"].solve(state["problem"], state["config"])}

    def check(self, state, outputs):
        gs, problem, res = state["gs"], state["problem"], outputs["result"]
        fails = []
        objs = [t.objective for t in res.trace]
        if not all(b <= a for a, b in zip(objs, objs[1:])):
            fails.append("solve: objective trace is not monotone")
        ratio = res.final_objective / res.initial_objective
        if not ratio <= 0.10:
            fails.append(f"solve: final objective is {100 * ratio:.3g}% of the initial one (gate 10%)")
        mask = res.normal_map.mask
        norms = np.linalg.norm(res.normal_map.normals[mask], axis=1)
        if not np.abs(norms - 1.0).max() <= 1e-9:
            fails.append("solve: returned normals are not unit")
        if not res.env.radiance.min() >= 0.0:
            fails.append("solve: returned env has negative radiance")
        for m in res.materials:
            if not (np.all(m.raw >= m.lo) and np.all(m.raw <= m.hi)):
                fails.append("solve: material parameters leave their bounds")

        # The objective recomputed from the returned state with the evaluator.
        scene = gs.RenderScene(res.normal_map, problem.camera, res.env, res.materials, problem.segmentation)
        image = evaluator.SceneEvaluator(scene).image()
        r = image[mask] - problem.target.pixels[mask]
        dn = res.normal_map.normals[mask] - problem.normal_map.normals[mask]
        de = res.env.radiance - problem.env.radiance
        value = float(np.sum(r * r)) + problem.a * float(np.sum(dn * dn)) + problem.b * float(np.sum(de * de))
        rel = abs(value - res.final_objective) / max(abs(value), 1e-300)
        if not rel <= 1e-9:
            fails.append(f"solve: recomputed objective {value!r} vs final_objective {res.final_objective!r} (rel {rel:.3g}, gate 1e-9)")
        return [fails]

    def describe(self, state):
        return {"scene": _scene_makeup(state["problem"].scene()), "noise_seed": inputs.SOLVE_NOISE_SEED}


def _resident_mb() -> float:
    """Current resident set of this process, from /proc/self/statm."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class PinholeEditBatch(Workload):
    """`gradshade edit` through cli.main on four photographs, from files to files."""

    name = "pinhole_edit_batch"
    samples = 48
    identical_photo = 0  # the photo re-rendered with edit_material(threads=THREADS)

    def __init__(self, frames=inputs.PHOTO_FRAMES, radii=inputs.PHOTO_RADII, offsets=inputs.PHOTO_OFFSETS):
        self.frames, self.radii, self.offsets = frames, radii, offsets
        self.ops = len(frames)

    def prepare(self, seed, work_dir):
        manifest = inputs.write_photos(seed, Path(work_dir), self.frames, self.radii, self.offsets)
        (Path(work_dir) / "manifest.json").write_text(json.dumps(manifest), encoding="ascii")
        return manifest

    def _argv(self, work_dir, manifest, i):
        d = Path(work_dir)
        photo, mats = manifest["photos"][i], manifest["materials"]
        return [
            "--threads", str(self.threads), "edit",
            "--normals", str(d / photo["normals"]),
            "--segmentation", str(d / photo["segmentation"]),
            "--env", str(d / manifest["env"]),
            "--material", str(d / mats["scene-0"]),
            "--material", str(d / mats["scene-1"]),
            "--camera", f"pinhole:{inputs.PHOTO_FOV:g}",
            "--target-material", str(d / mats["edit-0"]),
            "--target-material", str(d / mats["edit-1"]),
            "--out", str(d / f"photo{i}_edit.pfm"),
            "--preview", str(d / f"photo{i}_edit.png"),
        ]  # fmt: skip

    def setup(self, seed, work_dir):
        from gradshade import cli

        manifest = json.loads((Path(work_dir) / "manifest.json").read_text(encoding="ascii"))
        argvs = [self._argv(work_dir, manifest, i) for i in range(len(manifest["photos"]))]
        return {"cli": cli, "seed": seed, "work_dir": Path(work_dir), "manifest": manifest, "argvs": argvs}

    def run(self, state):
        codes, errors, resident = [], [], []
        for argv in state["argvs"]:
            try:
                codes.append(state["cli"].main(argv))
                errors.append(None)
            except Exception as exc:  # an escaped exception fails this photo only
                codes.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            resident.append(_resident_mb())
        return {"codes": codes, "errors": errors, "rss_growth_mb": resident[-1] - resident[0]}

    def _materials(self, gs, state, names):
        out = []
        for name in names:
            doc = json.loads((state["work_dir"] / state["manifest"]["materials"][name]).read_text(encoding="ascii"))
            out.append(gs.DsbrdfMaterial(np.array(doc["params"]), np.array(doc["lo"]), np.array(doc["hi"]), name))
        return tuple(out)

    def check(self, state, outputs):
        import gradshade as gs
        from gradshade.io import read_normal_png16

        d, manifest = state["work_dir"], state["manifest"]
        env = gs.EnvironmentMap(inputs.read_pfm(d / manifest["env"]).astype(np.float64))
        edits = self._materials(gs, state, ("edit-0", "edit-1"))
        rng = _rng(state["seed"], 5)
        result = []
        for i, photo in enumerate(manifest["photos"]):
            what = f"photo {i}"
            if outputs["codes"][i] != 0:
                result.append([f"{what}: cli.main returned {outputs['codes'][i]!r} {outputs['errors'][i] or ''}".strip()])
                continue
            fails = []
            source = np.load(d / f"photo{i}_source.npy")
            quantized = np.load(d / f"photo{i}_quantized.npy")
            mask = quantized[..., 3] > 0
            decoded = read_normal_png16(d / photo["normals"])
            if not np.array_equal(decoded.mask, mask) or np.abs(decoded.normals - source).max() > 2.0 / 65535.0:
                fails.append(f"{what}: decoded normals differ from the source by more than 2/65535")

            # The normals the program renders with: decoded and renormalised.
            n = quantized[..., :3].astype(np.float64) / 65535.0 * 2.0 - 1.0
            n[mask] /= np.sqrt(np.sum(n[mask] ** 2, axis=1))[:, None]
            n[~mask] = 0.0
            regions = gs.SegmentationMask(np.where(mask, pngcodec.read_png(d / photo["segmentation"])[..., 0].astype(np.int32), -1), 2)
            camera = gs.Camera("pinhole", photo["width"], photo["height"], inputs.PHOTO_FOV)
            scene = gs.RenderScene(gs.NormalMap(n, mask), camera, env, edits, regions)

            pfm = inputs.read_pfm(d / f"photo{i}_edit.pfm")
            image = pfm.astype(np.float64)
            if image.shape != source.shape:
                fails.append(f"{what}: output has shape {image.shape}")
                result.append(fails)
                continue
            fails += _check_background(image, mask, what)
            ev = evaluator.SceneEvaluator(scene)
            for px, py in _sample_foreground(mask, rng, self.samples):
                ref = ev.pixel(px, py)
                if np.any(np.abs(image[py, px] - ref) > 2.0**-23 * np.abs(ref)):
                    fails.append(f"{what}: pixel ({px}, {py}) is {image[py, px]} but the evaluator gives {ref}")
                    break

            # Preview: the tone-map formula on the PFM, within one step of 8 bits.
            lum = image.mean(axis=2)
            exposure = 1.0 / float(np.percentile(lum[lum > 0.0], 99.0))
            expected = np.rint(np.clip(255.0 * np.clip(exposure * image, 0.0, None) ** (1.0 / 2.2), 0.0, 255.0))
            preview = pngcodec.read_png(d / f"photo{i}_edit.png").astype(np.float64)
            if preview.shape != expected.shape or np.abs(preview - expected).max() > 1.0:
                fails.append(f"{what}: preview is not the tone-mapped PFM within 1 LSB")

            if i == self.identical_photo:
                from gradshade.io import read_segmentation_png16

                own = gs.RenderScene(
                    decoded, camera, env, self._materials(gs, state, ("scene-0", "scene-1")),
                    read_segmentation_png16(d / photo["segmentation"]),
                )
                parallel = gs.edit_material(own, edits, threads=THREADS).pixels.astype(np.float32)
                if not np.array_equal(parallel.view(np.uint32), np.ascontiguousarray(pfm).view(np.uint32)):
                    fails.append(f"{what}: the CLI output is not bit-identical to edit_material(threads={THREADS})")
            result.append(fails)
        return result

    def describe(self, state):
        texels = inputs.PHOTO_ENV[0] * inputs.PHOTO_ENV[1]
        dirs, _ = evaluator.light_table(*inputs.PHOTO_ENV)
        photos = []
        for i, photo in enumerate(state["manifest"]["photos"]):
            source = np.load(state["work_dir"] / f"photo{i}_source.npy")
            fg = photo["foreground"]
            entry = {"frame": f"{photo['width']}x{photo['height']}", "foreground_pixels": fg, "texels": texels}
            entry["pairs"] = fg * texels
            entry["lit_pair_share"] = round(_lit_share(source[np.any(source != 0.0, axis=2)], dirs), 4)
            for key in ("normals_bytes", "segmentation_bytes", "normals_filter_rows", "segmentation_filter_rows"):
                entry[key] = photo[key]
            photos.append(entry)
        return {"photos": photos, "filter_rows": state["manifest"]["filter_rows"]}


WORKLOADS = {w.name: w for w in (OrthoGrad(), SolveFull(), PinholeEditBatch())}
