"""End-to-end command line tests driving main(argv) in-process."""

import numpy as np
import pytest

from conftest import ihdr_edit, json_value_edit, mutants, pfm_token_edit, refilter_png16, write_png_bomb
from gradshade.cli import main
from gradshade.core import BACKGROUND_REGION, SegmentationMask
from gradshade.io import (
    MalformedFileError,
    read_material,
    read_normal_png16,
    read_pfm,
    read_segmentation_png16,
    write_pfm,
    write_segmentation_png16,
)


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    rc = main(["fixtures", "--out", str(out), "--resolution", "16", "--env-height", "4"])
    assert rc == 0
    return out


def scene_args(fx):
    return [
        "--normals", str(fx / "sphere_normals.png"),
        "--env", str(fx / "env.pfm"),
        "--material", str(fx / "material_matte.json"),
        "--segmentation", str(fx / "sphere_segmentation.png"),
    ]


def test_fixtures_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fixtures", "--out", str(a), "--resolution", "16", "--env-height", "4"]) == 0
    assert main(["fixtures", "--out", str(b), "--resolution", "16", "--env-height", "4"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert "sphere_normals.png" in names and "env.pfm" in names
    assert "sphere_segmentation.png" in names and "material_matte.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fixtures_with_empty_env_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["fixtures", "--out", str(out), "--resolution", "16", "--env-height", "0"]) == 2
    assert not (out / "env.pfm").exists()
    assert "gradshade:" in capsys.readouterr().err


def test_render_writes_pfm_and_is_deterministic(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "r1.pfm", tmp_path / "r2.pfm"
    argv = ["render", *scene_args(fixture_dir), "--out", str(out1)]
    assert main(argv) == 0
    assert main(["render", *scene_args(fixture_dir), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    img = read_pfm(out1)
    assert img.shape == (16, 16, 3)
    assert img.max() > 0.0


def test_render_zero_env_gives_zero_image(fixture_dir, tmp_path):
    zero_env = tmp_path / "zero.pfm"
    write_pfm(zero_env, np.zeros((4, 8, 3)))
    out = tmp_path / "black.pfm"
    argv = ["render", *scene_args(fixture_dir), "--out", str(out)]
    argv[argv.index("--env") + 1] = str(zero_env)
    assert main(argv) == 0
    assert not read_pfm(out).any()


def test_render_preview_written(fixture_dir, tmp_path):
    out = tmp_path / "r.pfm"
    prev = tmp_path / "r.png"
    argv = ["render", *scene_args(fixture_dir), "--out", str(out), "--preview", str(prev)]
    assert main(argv) == 0
    assert prev.read_bytes().startswith(b"\x89PNG")


def test_render_missing_material_for_two_regions(fixture_dir, tmp_path, capsys):
    # two-region segmentation but only one material on the command line
    nm = read_normal_png16(fixture_dir / "sphere_normals.png")
    ids = np.where(nm.mask, 0, BACKGROUND_REGION).astype(np.int32)
    ids[:, 8:][nm.mask[:, 8:]] = 1
    seg_path = tmp_path / "two.png"
    write_segmentation_png16(seg_path, SegmentationMask(ids, 2))
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--segmentation") + 1] = str(seg_path)
    assert main(argv) == 2
    assert "expected 2 materials, got 1" in capsys.readouterr().err


def test_render_png_bomb_exits_2(fixture_dir, tmp_path, capsys):
    bomb = tmp_path / "bomb.png"
    write_png_bomb(bomb)
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--normals") + 1] = str(bomb)
    assert main(argv) == 2
    assert "inflate" in capsys.readouterr().err


HUGE_PARAM = '{"version": 1, "params": [1%s%s]}' % ("0" * 400, ", 0" * 107)  # 108 params, one past float range
BOOL_PARAMS = '{"version": 1, "params": [%s]}' % ", ".join(["true"] * 108)
STRING_PARAMS = '{"version": 1, "params": [%s]}' % ", ".join(['"0.55"'] * 108)


@pytest.mark.parametrize(
    "text", ["[" * 200000, HUGE_PARAM, BOOL_PARAMS, STRING_PARAMS], ids=["nested", "huge", "booleans", "strings"]
)
def test_render_hostile_material_file_exits_2(fixture_dir, tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--material") + 1] = str(bad)
    assert main(argv) == 2
    assert "gradshade:" in capsys.readouterr().err


def test_render_paeth_filtered_normals(fixture_dir, tmp_path):
    """A normal map with every row Paeth-filtered renders as the unfiltered one does."""
    paeth = tmp_path / "paeth.png"
    refilter_png16(fixture_dir / "sphere_normals.png", paeth, [4])
    plain, out = tmp_path / "plain.pfm", tmp_path / "paeth.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(plain)]) == 0
    argv = ["render", *scene_args(fixture_dir), "--out", str(out)]
    argv[argv.index("--normals") + 1] = str(paeth)
    assert main(argv) == 0
    assert out.read_bytes() == plain.read_bytes()


CORRUPTED = {  # input: (flag, fixture file, reader, format edits)
    "normals": ("--normals", "sphere_normals.png", read_normal_png16, (ihdr_edit,)),
    "filtered_normals": ("--normals", None, read_normal_png16, (ihdr_edit,)),
    "segmentation": ("--segmentation", "sphere_segmentation.png", read_segmentation_png16, (ihdr_edit,)),
    "env": ("--env", "env.pfm", read_pfm, (pfm_token_edit,)),
    "material": ("--material", "material_matte.json", read_material, (json_value_edit,)),
}


@pytest.mark.parametrize("seed, name", list(enumerate(CORRUPTED)), ids=list(CORRUPTED))
def test_render_corrupt_input_exits_2(fixture_dir, tmp_path, capsys, seed, name):
    """A sample of the decoder corpus's mutants (tests/test_io.py), those the reader rejects, through the CLI."""
    flag, fixture, read, edits = CORRUPTED[name]
    src = tmp_path / "src"
    if fixture is None:  # rows alternate the Average and Paeth filters
        refilter_png16(fixture_dir / "sphere_normals.png", src, [3, 4])
    else:
        src.write_bytes((fixture_dir / fixture).read_bytes())
    bad = tmp_path / "bad"
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index(flag) + 1] = str(bad)
    ran = 0
    for data in mutants(src.read_bytes(), seed, 40, edits):
        bad.write_bytes(data)
        try:
            read(bad)
        except MalformedFileError:
            assert main(argv) == 2
            assert "gradshade:" in capsys.readouterr().err
            ran += 1
            if ran == 4:
                break
    assert ran == 4


def test_render_empty_last_region_renders(fixture_dir, tmp_path):
    # the fixture segmentation has region 0 only; region 1 gets no pixels
    one, two = tmp_path / "one.pfm", tmp_path / "two.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(one)]) == 0
    argv = ["render", *scene_args(fixture_dir), "--material", str(fixture_dir / "material_glossy.json"), "--out", str(two)]
    assert main(argv) == 0
    assert one.read_bytes() == two.read_bytes()


def test_render_missing_file_exits_2(fixture_dir, tmp_path, capsys):
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--env") + 1] = str(tmp_path / "nope.pfm")
    assert main(argv) == 2
    assert "gradshade:" in capsys.readouterr().err


def test_edit_with_same_material_mirrors_render(fixture_dir, tmp_path):
    ref = tmp_path / "ref.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(ref)]) == 0
    edited = tmp_path / "edit.pfm"
    argv = [
        "edit", *scene_args(fixture_dir),
        "--target-material", str(fixture_dir / "material_matte.json"),
        "--out", str(edited),
    ]
    assert main(argv) == 0
    assert edited.read_bytes() == ref.read_bytes()


def test_edit_swaps_material(fixture_dir, tmp_path):
    ref = tmp_path / "ref.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(ref)]) == 0
    edited = tmp_path / "glossy.pfm"
    argv = [
        "edit", *scene_args(fixture_dir),
        "--target-material", str(fixture_dir / "material_glossy.json"),
        "--out", str(edited),
    ]
    assert main(argv) == 0
    # must equal a direct render with the glossy material
    direct = tmp_path / "direct.pfm"
    argv2 = ["render", *scene_args(fixture_dir), "--out", str(direct)]
    argv2[argv2.index("--material") + 1] = str(fixture_dir / "material_glossy.json")
    assert main(argv2) == 0
    assert edited.read_bytes() == direct.read_bytes()


def test_invert_from_ground_truth_converges_immediately(fixture_dir, tmp_path, capsys):
    target = tmp_path / "target.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(target)]) == 0
    prefix = str(tmp_path / "sol_")
    argv = [
        "invert",
        "--target", str(target),
        "--init-normals", str(fixture_dir / "sphere_normals.png"),
        "--init-env", str(fixture_dir / "env.pfm"),
        "--init-material", str(fixture_dir / "material_matte.json"),
        "--segmentation", str(fixture_dir / "sphere_segmentation.png"),
        "--free", "material",
        "--cycles", "2",
        "--inner-iters", "4",
        "--out-prefix", prefix,
        "--trace", str(tmp_path / "trace.txt"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "objective" in out and "cycles=" in out
    # outputs exist and match the inputs at file-codec precision
    sol_n = read_normal_png16(tmp_path / "sol_normals.png")
    init_n = read_normal_png16(fixture_dir / "sphere_normals.png")
    assert np.array_equal(sol_n.mask, init_n.mask)
    assert np.abs(sol_n.normals - init_n.normals).max() < 2.0 / 65535.0
    assert np.array_equal(read_pfm(tmp_path / "sol_env.pfm"), read_pfm(fixture_dir / "env.pfm"))
    sol_m = read_material(tmp_path / "sol_material_0.json")
    init_m = read_material(fixture_dir / "material_matte.json")
    assert np.abs(sol_m.raw - init_m.raw).max() < 1e-6
    # trace lines: cycle group iteration objective grad_norm
    lines = (tmp_path / "trace.txt").read_text().strip().splitlines()
    for line in lines:
        parts = line.split()
        assert len(parts) == 5
        assert parts[1] in {"normal", "light", "material"}
        float(parts[3]), float(parts[4])


def test_invert_rejects_unknown_group(fixture_dir, tmp_path, capsys):
    target = tmp_path / "target.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(target)]) == 0
    argv = [
        "invert",
        "--target", str(target),
        "--init-normals", str(fixture_dir / "sphere_normals.png"),
        "--init-env", str(fixture_dir / "env.pfm"),
        "--init-material", str(fixture_dir / "material_matte.json"),
        "--free", "texture",
        "--out-prefix", str(tmp_path / "x_"),
    ]
    assert main(argv) == 2
    assert "free groups" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l.startswith("group=")]
    assert len(lines) == 3
    for line in lines:
        assert line.endswith(" ok")
        assert "max_rel_error=" in line


def test_gradcheck_single_group(capsys):
    assert main(["gradcheck", "--trials", "4", "--group", "light"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.startswith("group=")]
    assert len(lines) == 1 and "group=light" in lines[0]


def test_metrics_identical_files(fixture_dir, tmp_path, capsys):
    out = tmp_path / "img.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(out)]) == 0
    assert main(["metrics", str(out), str(out)]) == 0
    assert capsys.readouterr().out.strip() == "l2=0 ssim=1"


def test_metrics_detects_differences(fixture_dir, tmp_path, capsys):
    ref = tmp_path / "ref.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(ref)]) == 0
    doubled = tmp_path / "double.pfm"
    write_pfm(doubled, read_pfm(ref) * 2.0)
    assert main(["metrics", str(ref), str(doubled)]) == 0
    out = capsys.readouterr().out
    l2 = float(out.split("l2=")[1].split()[0])
    ssim = float(out.split("ssim=")[1].split()[0])
    assert l2 > 0.0
    assert ssim < 1.0


def test_metrics_respects_mask(fixture_dir, tmp_path, capsys):
    ref = tmp_path / "ref.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(ref)]) == 0
    img = read_pfm(ref)
    # corrupt only the background corner; masked L2 must stay zero
    img[0, 0] += 50.0
    bad = tmp_path / "bad.pfm"
    write_pfm(bad, img)
    seg = str(fixture_dir / "sphere_segmentation.png")
    assert main(["metrics", str(ref), str(bad), "--mask", seg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("l2=0 ")


def test_threads_flag_does_not_change_output(fixture_dir, tmp_path):
    a, b = tmp_path / "t1.pfm", tmp_path / "t4.pfm"
    assert main(["--threads", "1", "render", *scene_args(fixture_dir), "--out", str(a)]) == 0
    assert main(["--threads", "4", "render", *scene_args(fixture_dir), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def invert_argv(fixture_dir, tmp_path, segmentation, materials):
    target = tmp_path / "target.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(target)]) == 0
    argv = [
        "invert",
        "--target", str(target),
        "--init-normals", str(fixture_dir / "sphere_normals.png"),
        "--init-env", str(fixture_dir / "env.pfm"),
        "--segmentation", str(segmentation),
        "--free", "material",
        "--cycles", "1",
        "--inner-iters", "2",
        "--out-prefix", str(tmp_path / "sol_"),
    ]
    for name in materials:
        argv += ["--init-material", str(fixture_dir / f"material_{name}.json")]
    return argv


def test_invert_empty_last_region_runs(fixture_dir, tmp_path):
    seg = fixture_dir / "sphere_segmentation.png"  # region 0 only
    assert main(invert_argv(fixture_dir, tmp_path, seg, ["matte", "glossy"])) == 0
    assert (tmp_path / "sol_material_1.json").exists()


def test_invert_region_id_past_material_count_exits_2(fixture_dir, tmp_path, capsys):
    nm = read_normal_png16(fixture_dir / "sphere_normals.png")
    ids = np.where(nm.mask, 0, BACKGROUND_REGION).astype(np.int32)
    ids[:, 8:][nm.mask[:, 8:]] = 1
    seg = tmp_path / "two.png"
    write_segmentation_png16(seg, SegmentationMask(ids, 2))
    assert main(invert_argv(fixture_dir, tmp_path, seg, ["matte"])) == 2
    assert "expected 2 materials, got 1" in capsys.readouterr().err
