import argparse
import hashlib
import json
import os
import pathlib
import shlex

import pytest

from vvlab.cli import _build_parser, cli_main


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_missing_config_exits_2(capsys):
    assert cli_main(["study", "rates"]) == 2
    out = capsys.readouterr()
    assert "config" in out.err.lower()


def test_nonexistent_config_file_exits_2(capsys):
    assert cli_main(["study", "rates", "--config", "/no/such.cfg"]) == 2


def _readme_commands():
    """The ``vvlab ...`` lines of README's command block, comments stripped."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("vvlab ")]


def _subcommands(parser):
    """Every leaf command of ``parser`` as its words, e.g. ("ns", "solve")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [()]
    return [(name, *rest) for name, sub in subs[0].choices.items()
            for rest in _subcommands(sub)]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: vvlab {' '.join(argv)}")
    for cmd in _subcommands(parser):
        assert any(tuple(argv[:len(cmd)]) == cmd for argv in commands), \
            f"README lists no `vvlab {' '.join(cmd)}` command"


def _parse_data_fields(path, names=0):
    """float() of every field after the first ``names`` of each data line."""
    rows = [line.split()[names:] for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert rows
    return [[float(field) for field in row] for row in rows]


def test_layer_solve_writes_snapshot(tmp_path, capsys):
    code = cli_main(["layer", "solve", "--preset", "vortex-annulus",
                     "--out", str(tmp_path)])
    assert code == 0
    _parse_data_fields(tmp_path / "layer_profile.dat", names=1)


def test_ns_solve_writes_snapshot(tmp_path, capsys):
    code = cli_main(["ns", "solve", "--preset", "flat-shear",
                     "--out", str(tmp_path)])
    assert code == 0
    _parse_data_fields(tmp_path / "ns_solution.dat")


def test_study_rates_writes_three_files(tmp_path, capsys):
    code = cli_main(["study", "rates", "--preset", "vortex-annulus",
                     "--out", str(tmp_path)])
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["errors.csv", "rates.json", "run_meta.json"]


MINI_CFG = """
[geometry]
kind = flat_channel
h = 1.0
eta = 0.45
collar_points = 4

[euler]
family = shear_cos
omega = 1.0

[layer]
nz = 64
dt = 1e-3
t_end = 0.2

[ns]
ny = 256
dt = 1e-3
t_end = 0.2

[study]
nu_list = 1e-2, 1e-3, 1e-4
norms = l2
t_eval = 0.1, 0.2
"""


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    code = cli_main(["study", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    rates = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert "l2" in rates["norms"]


def test_config_output_dir_used_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG + "output_dir = results\n")
    assert cli_main(["study", "rates", "--config", str(cfg)]) == 0
    assert (tmp_path / "results" / "errors.csv").exists()
    assert not (tmp_path / "out").exists()
    # --out overrides the config's output_dir
    assert cli_main(["study", "rates", "--config", str(cfg),
                     "--out", "elsewhere"]) == 0
    assert (tmp_path / "elsewhere" / "errors.csv").exists()


@pytest.mark.parametrize("argv", [["check"], ["layer", "solve"], ["ns", "solve"],
                                  ["study", "rates"]])
def test_no_command_takes_jobs(tmp_path, argv, capsys):
    # a study runs on every core it may use; argparse refuses --jobs
    code = cli_main(argv + ["--preset", "vortex-annulus", "--jobs", "1",
                            "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("zmax", ["0", "nan", "inf"])
def test_zero_layer_zmax_is_a_config_error(tmp_path, capsys, zmax):
    # zmax = 0 is a value, not "auto": it must not fall back to the default;
    # a non-finite zmax is named before it reaches the layer march
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("nz = 64\n", f"nz = 64\nzmax = {zmax}\n"))
    code = cli_main(["layer", "solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"zmax must be finite and positive, got {float(zmax)}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "layer_profile.dat").exists()


@pytest.mark.parametrize("argv", [["layer", "solve"], ["study", "rates"]])
def test_degenerate_layer_grid_is_a_config_error(tmp_path, capsys, argv):
    # zmax = 1e-20 puts every one of the 64 fast nodes but the last at 0.0;
    # the grid is refused where it is made, before any divide-by-zero
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("nz = 64\n", "nz = 64\nzmax = 1e-20\n"))
    code = cli_main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "zmax = 1e-20 and nz = 64 does not increase strictly" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_aniso_norm_string_is_a_config_error(tmp_path, capsys):
    # a study reports volume norms only; the layer's weighted norms are
    # asked for in code, by AnisotropicIndex
    from vvlab import geometry as geo
    from vvlab.errors import ConfigError
    from vvlab.study import EulerSpec, StudyConfig

    with pytest.raises(ConfigError, match="unknown norm string 'aniso:0,0,0,2'"):
        StudyConfig(geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
                    euler=EulerSpec(family="rigid"), norms=("l2", "aniso:0,0,0,2"))
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("norms = l2\n", "norms = l2, aniso:0,0,0,2\n"))
    code = cli_main(["study", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    # the file's norms split at commas: the string's first piece is refused
    assert "unknown norm string 'aniso:0'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [("euler", "family"), ("geometry", "eta"),
                                          ("geometry", "h")])
def test_missing_config_key_exits_2_naming_it(tmp_path, capsys, section, key):
    cfg = tmp_path / "mini.cfg"
    text = "".join(line for line in MINI_CFG.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    cfg.write_text(text)
    code = cli_main(["study", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"[{section}] needs a {key!r} key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nu", ["0", "-1e-3", "nan", "inf"])
def test_non_positive_ns_nu_is_a_config_error(tmp_path, capsys, nu):
    # nu = 0 must not fall back to the first value of nu_list; a NaN nu
    # marched to a non-finite iterate (exit 1)
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("ny = 256\n", f"ny = 256\nnu = {nu}\n"))
    code = cli_main(["ns", "solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nu must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ns_solution.dat").exists()


@pytest.mark.parametrize("nu_list, bad", [("1e-2, 1e-3, 0", "0.0"),
                                           ("1e-2, 1e-3, -1e-4", "-0.0001"),
                                           ("1e-2, nan, 1e-4", "nan")])
def test_non_positive_or_non_finite_study_nu_is_a_config_error(tmp_path, capsys,
                                                                nu_list, bad):
    # refused by name before the span's log10, which raised ZeroDivisionError
    # or "math domain error" (exit 1), or let a NaN viscosity through
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("nu_list = 1e-2, 1e-3, 1e-4\n",
                                    f"nu_list = {nu_list}\n"))
    code = cli_main(["study", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"nu_list values must be finite and positive, got [{bad}]" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["ny", "nr"])
def test_zero_ns_grid_size_is_a_config_error(tmp_path, capsys, key):
    # an explicit 0 must not fall through to the next key or the default
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("ny = 256\n", f"{key} = 0\nn = 256\n"))
    code = cli_main(["ns", "solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "n must be >=" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ns_solution.dat").exists()


@pytest.mark.parametrize("norm", ["lp:inf", "lp:nan"])
def test_non_finite_lp_norm_in_a_config_file_exits_2(tmp_path, capsys, norm):
    # lp:inf read 1.0 for every field; the sup norm is linf
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG.replace("norms = l2\n", f"norms = l2, {norm}\n"))
    code = cli_main(["study", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "linf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SWIRL_CFG = MINI_CFG.replace("""kind = flat_channel
h = 1.0""", """kind = annulus_gap
r1 = 1.0
r2 = 2.0""").replace("family = shear_cos", "family = rigid").replace(
    "ny = 256", "nr = 128")


@pytest.mark.parametrize("name, text", [("swirl", SWIRL_CFG), ("channel", MINI_CFG)])
def test_ns_solve_file_matches_golden(tmp_path, capsys, name, text):
    # ns_solution.dat, all three components of every stored time, byte for
    # byte
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    assert cli_main(["ns", "solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "ns_solution.dat").read_bytes()
    # the two components off the flow's are written as exact zeros
    flow = 3 if name == "swirl" else 2
    assert {field for line in data.decode().splitlines()[1:]
            for i, field in enumerate(line.split()) if i >= 2 and i != flow} \
        == {"0.0"}
    digest = hashlib.sha256(data).hexdigest()
    golden = pathlib.Path(__file__).parent / "golden" / "ns_solution.sha256"
    want = dict(line.split()[::-1] for line in golden.read_text().splitlines())
    assert digest == want[name]


def test_rigid_layer_solve_file_matches_golden(tmp_path):
    # layer_profile.dat of the rigid preset, both walls marched in one
    # kernel call, byte for byte the file of one march per wall
    assert cli_main(["layer", "solve", "--preset", "rigid-annulus",
                     "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "layer_profile.dat").read_bytes()).hexdigest()
    golden = pathlib.Path(__file__).parent / "golden" / "rigid_layer.sha256"
    assert golden.read_text().split() == [digest, "layer_profile.dat"]


def test_channel_layer_solve_file_matches_golden(tmp_path):
    # layer_profile.dat of a channel shear whose datum is nonzero on the
    # lower wall alone: each wall's column is written in the slot of x among
    # its tangents, c1 on the lower wall (z, x) and c0 on the upper (x, z),
    # and 0.0 in the other
    cfg = tmp_path / "channel.cfg"
    cfg.write_text(MINI_CFG.replace("family = shear_cos", "family = shear_poly:0.2,1.0,-0.5"))
    assert cli_main(["layer", "solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "layer_profile.dat").read_bytes()
    rows = [line.split() for line in data.decode().splitlines()[1:]]
    lower = [row for row in rows if row[0] == "lower"]
    assert {row[4] for row in lower} == {"0.0"}
    assert any(float(row[5]) != 0.0 for row in lower)
    assert {field for row in rows if row[0] == "upper" for field in row[4:]} == {"0.0"}
    digest = hashlib.sha256(data).hexdigest()
    golden = pathlib.Path(__file__).parent / "golden" / "channel_layer.sha256"
    assert golden.read_text().split() == [digest, "layer_profile.dat"]
