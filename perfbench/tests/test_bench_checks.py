"""Each workload check passes the program's output and rejects a perturbed one.

The workloads run here on small scenes; the checks are the ones the
benchmark runs.
"""

import dataclasses

import numpy as np
import pytest

import gradshade as gs
import inputs
import pngcodec
import workloads

SEED = 7


def _run(workload, work_dir):
    workload.prepare(SEED, work_dir)
    state = workload.setup(SEED, work_dir)
    outputs = workload.run(state)
    assert workload.check(state, outputs) == [[]] * workload.ops
    return state, outputs


def test_ortho_grad_check_rejects_each_perturbed_group(tmp_path):
    w = workloads.OrthoGrad(resolution=16, env_shape=(8, 16), fd_pixels=4)
    state, out = _run(w, tmp_path)
    g = out["grads"]
    for field in ("d_normals", "d_env", "d_materials"):
        bad = dataclasses.replace(g, **{field: getattr(g, field) * (1.0 + 1e-3)})
        fails = w.check(state, {"grads": bad})[0]
        assert fails, field


def test_solve_check_rejects_perturbed_results(tmp_path):
    w = workloads.SolveFull(resolution=16, env_shape=(8, 16), max_cycles=3, inner_iters=12)
    state, out = _run(w, tmp_path)
    res = out["result"]

    normals = res.normal_map.normals.copy()
    normals[res.normal_map.mask] *= 1.0 + 1e-7  # still a valid NormalMap
    material = res.materials[0]
    raw = material.raw.copy()
    raw[0] = material.hi[0] + 1.0
    env = res.env.radiance.copy()
    env[0, 0, 0] += 1e-3
    perturbed = {
        "trace": dataclasses.replace(res, trace=tuple(reversed(res.trace))),
        "objective": dataclasses.replace(res, final_objective=res.final_objective * (1.0 + 1e-6)),
        "ratio": dataclasses.replace(res, initial_objective=res.final_objective * 5.0),
        "normals": dataclasses.replace(res, normal_map=gs.NormalMap(normals, res.normal_map.mask)),
        "bounds": dataclasses.replace(res, materials=(material.with_raw(raw),)),
        "env": dataclasses.replace(res, env=gs.EnvironmentMap(env)),
    }
    for name, bad in perturbed.items():
        assert w.check(state, {"result": bad})[0], name


@pytest.fixture
def edit_run(tmp_path):
    w = workloads.PinholeEditBatch(frames=((40, 30), (48, 36)), radii=(0.3, 0.35), offsets=((0.5, 0.2), (-0.3, 0.4)))
    state, out = _run(w, tmp_path)
    return w, state, out, tmp_path


def _rewrite_pfm(path, change):
    image = np.array(inputs.read_pfm(path))
    change(image)
    inputs.write_pfm(path, image)


def test_edit_check_rejects_failed_calls(edit_run):
    w, state, out, _ = edit_run
    assert w.check(state, dict(out, codes=[2, 0]))[0]


def test_edit_check_rejects_perturbed_pfm(edit_run):
    w, state, out, d = edit_run
    mask = np.load(d / "photo1_quantized.npy")[..., 3] > 0

    def scale(image):
        image[mask] *= np.float32(1.0 + 1e-6)

    _rewrite_pfm(d / "photo1_edit.pfm", scale)
    fails = w.check(state, out)
    assert fails[1] and not fails[0]


def test_edit_check_rejects_lit_background(edit_run):
    w, state, out, d = edit_run

    def light(image):
        image[0, 0] = 1e-3

    _rewrite_pfm(d / "photo1_edit.pfm", light)
    assert w.check(state, out)[1]


def test_edit_check_rejects_one_ulp_against_single_thread(edit_run):
    w, state, out, d = edit_run
    mask = np.load(d / "photo0_quantized.npy")[..., 3] > 0
    y, x = np.argwhere(mask)[0]

    def bump(image):
        image[y, x, 0] = np.nextafter(image[y, x, 0], np.float32(np.inf))

    _rewrite_pfm(d / "photo0_edit.pfm", bump)
    assert w.check(state, out)[0]


def test_edit_check_rejects_perturbed_preview(edit_run):
    w, state, out, d = edit_run
    preview = pngcodec.read_png(d / "photo1_edit.png")
    preview[preview.shape[0] // 2, preview.shape[1] // 2] ^= 2
    pngcodec.write_png(d / "photo1_edit.png", preview, bit_depth=8)
    assert w.check(state, out)[1]


def test_edit_check_rejects_altered_normal_map(edit_run):
    w, state, out, d = edit_run
    quantized = np.load(d / "photo1_quantized.npy")
    mask = quantized[..., 3] > 0
    shifted = quantized.copy()
    shifted[mask, 0] = np.minimum(shifted[mask, 0].astype(np.int64) + 3, 65535).astype(np.uint16)
    pngcodec.write_png(d / "photo1_normals.png", shifted)
    assert w.check(state, out)[1]
