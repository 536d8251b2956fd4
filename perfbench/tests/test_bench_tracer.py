"""The tracer sees calls through every import path and puts the program back."""

import json
from pathlib import Path

import gradshade as gs
import gradshade.invert
import tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _scene():
    nm = gs.sphere_normal_map(8)
    return gs.RenderScene(nm, gs.Camera("orthographic", 8, 8), gs.default_blob_env(4, 8), (gs.preset_materials()["matte"],))


def test_spans_nest_and_originals_return():
    original = gs.render
    t = tracer.Tracer()
    t.install()
    try:
        scene = _scene()
        gs.render(scene, threads=2)
        gradshade.invert.edit_material(scene, gs.preset_materials()["glossy"])
    finally:
        t.uninstall()
    assert gs.render is original and gradshade.invert.render is original
    names = [s.name for s in t.spans]
    assert names.count("render.render") == 2  # once directly, once through invert's import
    by_id = {s.sid: s for s in t.spans}
    forward = [s for s in t.spans if s.name == "shading.forward"]
    assert len(forward) == 2
    assert all(by_id[s.parent].name == "render.render_linear" for s in forward)
    m = tracer.layer_metrics(t.spans)
    assert m["shading.forward_calls"] == 2
    assert m["shading.forward_pairs"] == 2 * int(scene.normal_map.mask.sum()) * 32
    assert m["render.peak_alloc_mb"] > 0.0
    for s in t.spans:
        assert 0.0 <= s.self_s <= s.duration


def test_benchmark_declares_every_layer_metric():
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    produced = set(tracer.layer_metrics([]))
    assert set(declared) == produced
    assert all(declared[n] == tracer.unit(n) for n in produced)
