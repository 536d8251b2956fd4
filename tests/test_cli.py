"""End-to-end command line tests driving main(argv) in-process."""

import dataclasses
import inspect
import struct
import warnings
import zlib

import numpy as np
import pytest

from conftest import ihdr_edit, json_value_edit, mutants, pfm_token_edit, png_chunk, refilter_png16, write_png_bomb
from gradshade import cli
from gradshade.cli import main
from gradshade.brdf import DsbrdfMaterial
from gradshade.core import BACKGROUND_REGION, NormalMap, SegmentationMask
from gradshade.grad import fd_check
from gradshade.invert import InverseProblem, OptimizerConfig
from gradshade.metrics import LdrImage
from gradshade.io import (
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


@pytest.mark.parametrize("layout", ["8-bit RGB preview", "16-bit RGB"])
def test_render_refuses_other_png_layouts(fixture_dir, tmp_path, capsys, layout):
    """Normal maps are read as 16-bit RGBA only; another layout exits 2 and says why."""
    bad = tmp_path / "bad.png"
    if layout == "8-bit RGB preview":
        write_preview_png(bad, LdrImage(np.zeros((4, 4, 3))))
        reason = "expected 16-bit samples, file has 8"
    else:
        ihdr = struct.pack(">IIBBBBB", 4, 4, 16, 2, 0, 0, 0)
        idat = zlib.compress(bytes(4 * (4 * 6 + 1)))
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat) + png_chunk(b"IEND", b""))
        reason = "expected PNG color type 6, file has 2"
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--normals") + 1] = str(bad)
    assert main(argv) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "x.pfm").exists()


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


@pytest.mark.parametrize("exposure", ["nan", "inf"])
@pytest.mark.parametrize("command", ["render", "edit"])
def test_bad_preview_exposure_exits_2_before_writing(fixture_dir, tmp_path, capsys, command, exposure):
    out, preview = tmp_path / "e.pfm", tmp_path / "e.png"
    argv = [command, *scene_args(fixture_dir), "--out", str(out), "--preview", str(preview), "--exposure", exposure]
    if command == "edit":
        argv += ["--target-material", str(fixture_dir / "material_glossy.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy sees it, so no RuntimeWarning either
        assert main(argv) == 2
    assert not out.exists() and not preview.exists()
    assert "exposure" in capsys.readouterr().err


@pytest.mark.parametrize("exposure", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["render", "edit"])
def test_bad_exposure_without_preview_exits_2_before_writing(fixture_dir, tmp_path, capsys, command, exposure):
    out = tmp_path / "e.pfm"
    argv = [command, *scene_args(fixture_dir), "--out", str(out), "--exposure", exposure]
    if command == "edit":
        argv += ["--target-material", str(fixture_dir / "material_glossy.json")]
    assert main(argv) == 2
    assert not out.exists()
    assert "exposure" in capsys.readouterr().err


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


class _Called(Exception):
    """Stops a command at its library call."""


def test_invert_and_gradcheck_defaults_are_the_library_defaults(fixture_dir, tmp_path, monkeypatch):
    """A flag left out means what leaving its argument out of the library call means."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Called

    monkeypatch.setattr(cli, "solve", record)
    monkeypatch.setattr(cli, "fd_check", record)
    target = tmp_path / "target.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(target)]) == 0
    argv = [
        "--threads", "1", "invert",
        "--target", str(target),
        "--init-normals", str(fixture_dir / "sphere_normals.png"),
        "--init-env", str(fixture_dir / "env.pfm"),
        "--init-material", str(fixture_dir / "material_matte.json"),
        "--out-prefix", str(tmp_path / "sol_"),
    ]  # fmt: skip
    with pytest.raises(_Called):
        main(argv)
    (problem, config), _ = calls.pop()
    assert config == OptimizerConfig(threads=1)
    fields = [f for f in dataclasses.fields(InverseProblem) if f.default is not dataclasses.MISSING]
    assert {f.name: getattr(problem, f.name) for f in fields} == {f.name: f.default for f in fields}
    with pytest.raises(_Called):
        main(["gradcheck"])
    _, kwargs = calls.pop()
    params = inspect.signature(fd_check).parameters
    assert kwargs == {"trials": params["trials"].default, "seed": params["seed"].default}


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


def test_metrics_nan_exposure_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "img.pfm"
    assert main(["render", *scene_args(fixture_dir), "--out", str(out)]) == 0
    assert main(["metrics", str(out), str(out), "--exposure", "nan"]) == 2
    assert "exposure" in capsys.readouterr().err


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
    # no pixel sees region 1, so its gradient and Gram are 0, and so is its step
    kept = read_material(tmp_path / "sol_material_1.json").raw
    assert kept.tobytes() == read_material(fixture_dir / "material_glossy.json").raw.tobytes()


@pytest.mark.parametrize("flag, value", [("--a", "nan"), ("--b", "nan"), ("--a", "inf"), ("--b", "inf"), ("--rel-tol", "nan")])
def test_invert_non_finite_weight_or_tolerance_exits_2_before_writing(fixture_dir, tmp_path, capsys, flag, value):
    argv = invert_argv(fixture_dir, tmp_path, fixture_dir / "sphere_segmentation.png", ["matte"])
    assert main([*argv, flag, value]) == 2
    assert not list(tmp_path.glob("sol_*"))
    captured = capsys.readouterr()
    assert "finite" in captured.err and "objective" not in captured.out


def test_invert_memory_flag_is_gone(fixture_dir, tmp_path, capsys):
    argv = invert_argv(fixture_dir, tmp_path, fixture_dir / "sphere_segmentation.png", ["matte"])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--memory", "4"])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("sol_*"))
    assert "unrecognized arguments: --memory" in capsys.readouterr().err


def test_invert_region_id_past_material_count_exits_2(fixture_dir, tmp_path, capsys):
    nm = read_normal_png16(fixture_dir / "sphere_normals.png")
    ids = np.where(nm.mask, 0, BACKGROUND_REGION).astype(np.int32)
    ids[:, 8:][nm.mask[:, 8:]] = 1
    seg = tmp_path / "two.png"
    write_segmentation_png16(seg, SegmentationMask(ids, 2))
    assert main(invert_argv(fixture_dir, tmp_path, seg, ["matte"])) == 2
    assert "expected 2 materials, got 1" in capsys.readouterr().err


def test_render_overflowing_material_exits_3_and_writes_nothing(fixture_dir, tmp_path, capsys):
    """A material whose own bounds allow amplitude 100 overflows its lobe: a numerical failure."""
    mat = read_material(fixture_dir / "material_glossy.json")
    lo, hi = mat.lo.copy(), mat.hi.copy()
    raw = mat.raw.copy()
    for arr, value in ((hi, 200.0), (raw, 100.0)):
        arr.reshape(3, 3, 2, 6)[:, :, 0, :] = value
    path = tmp_path / "hot.json"
    write_material(path, DsbrdfMaterial(raw, lo, hi))
    argv = ["render", *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm")]
    argv[argv.index("--material") + 1] = str(path)
    assert main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "x.pfm").exists()


def test_gradcheck_beyond_tolerance_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "FD_TOLERANCES", dict.fromkeys(cli.FD_TOLERANCES, 0.0))
    assert main(["gradcheck", "--trials", "2", "--group", "light"]) == 3
    assert capsys.readouterr().out.rstrip().endswith("FAIL")


@pytest.mark.parametrize("command", ["render", "edit"])
def test_radiance_past_float32_range_exits_2_and_writes_nothing(fixture_dir, tmp_path, capsys, command):
    """An amplitude-15 lobe under an env of 1e36: finite in float64, past what the PFM's float32 holds."""
    mat = read_material(fixture_dir / "material_glossy.json")
    raw = mat.raw.copy()
    raw.reshape(3, 3, 2, 6)[:, :, 0, :] = 15.0
    hot, bright = tmp_path / "hot.json", tmp_path / "bright.pfm"
    write_material(hot, mat.with_raw(raw))
    write_pfm(bright, np.full((4, 8, 3), 1e36))
    argv = [command, *scene_args(fixture_dir), "--out", str(tmp_path / "x.pfm"), "--preview", str(tmp_path / "x.png")]
    argv[argv.index("--env") + 1] = str(bright)
    if command == "render":
        argv[argv.index("--material") + 1] = str(hot)
    else:
        argv += ["--target-material", str(hot)]
    assert main(argv) == 2
    assert "float32" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_invert_on_an_empty_foreground_exits_0(fixture_dir, tmp_path, capsys):
    empty, target = tmp_path / "empty.png", tmp_path / "black.pfm"
    write_normal_png16(empty, NormalMap(np.zeros((16, 16, 3)), np.zeros((16, 16), dtype=bool)))
    write_pfm(target, np.zeros((16, 16, 3)))
    argv = [
        "invert",
        "--target", str(target),
        "--init-normals", str(empty),
        "--init-env", str(fixture_dir / "env.pfm"),
        "--init-material", str(fixture_dir / "material_matte.json"),
        "--out-prefix", str(tmp_path / "sol_"),
    ]  # fmt: skip
    assert main(argv) == 0
    assert "objective 0 -> 0" in capsys.readouterr().out
    assert read_pfm(tmp_path / "sol_env.pfm").tobytes() == read_pfm(fixture_dir / "env.pfm").tobytes()
    assert not read_normal_png16(tmp_path / "sol_normals.png").mask.any()
    assert (tmp_path / "sol_material_0.json").exists()
