"""tools/against_base.py, which runs CLI commands with stonework from a base
commit's src and from this tree's and compares them. Its 61 commands are not
run here: the fakes below are packages whose CLI writes fixed bytes."""

import hashlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

spec = importlib.util.spec_from_file_location("against_base", ROOT / "tools" / "against_base.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def fake_src(root: pathlib.Path, stdout="out", stderr="err", code=0) -> str:
    """A src directory whose stonework.cli writes the given bytes and exits."""
    package = root / "stonework"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        f"import sys\nsys.stdout.write({stdout!r})\nsys.stderr.write({stderr!r})\nsys.exit({code})\n"
    )
    return str(root)


@pytest.mark.parametrize("change, report", [
    ({"stdout": "out2"}, "stdout differs from the base commit"),
    ({"stderr": ""}, "stderr differs from the base commit"),
    ({"code": 3}, "exits 3, the base commit 0"),
])
def test_a_differing_command_is_reported(tmp_path, capsys, change, report):
    base, head = fake_src(tmp_path / "base"), fake_src(tmp_path / "head", **change)
    assert ab.against(base, head, [ab.Command(["germ", "--beta", "0"]), ab.Command(["zeta"], one_cpu=True)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "peak RSS" not in line] == [
        f"stonework germ --beta 0: {report}", f"stonework zeta (one CPU): {report}"
    ]


def test_peak_rss_may_exceed_the_base_by_ten_percent():
    base = ab.Run(b"", b"", 0, 100 * 1024)
    assert ab.differences(base, base._replace(rss=110 * 1024)) == []
    assert ab.differences(base, base._replace(rss=110 * 1024 + 1)) == [
        "peak RSS more than 10% above the base commit"
    ]


@pytest.mark.parametrize("side", ["base", "head"])
def test_guard_rejects_a_src_stonework_is_not_imported_from(tmp_path, capsys, side):
    empty = str(tmp_path)
    base, head = (empty, SRC) if side == "base" else (SRC, empty)
    assert ab.against(base, head, [ab.Command(["zeta"])]) == 1
    assert capsys.readouterr().out == f"stonework is not imported from {empty}\n"
    with pytest.raises(SystemExit, match="BASE_SRC HEAD_SRC"):
        ab.main([SRC])


def test_the_same_src_on_both_sides_shows_no_difference(capsys):
    assert ab.against(SRC, SRC, [ab.Command([])]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("stonework: peak RSS ")


def test_every_config_is_written_and_read(tmp_path):
    ab.write_configs(str(tmp_path))
    runs = ab.commands(str(tmp_path))
    read = {args[args.index("--config") + 1] for args, _ in runs if "--config" in args}
    assert len(runs) == 61
    assert [args for args, one_cpu in runs if one_cpu] == [["verify-all", "--seed", "0"]]
    assert read == {str(path) for path in tmp_path.iterdir()} and len(read) == 23


def test_a_one_cpu_command_runs_on_one_cpu(tmp_path):
    package = tmp_path / "stonework"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import os, sys\nsys.stdout.write(str(len(os.sched_getaffinity(0))))\n")
    one = ab.run(str(tmp_path), ab.Command([], one_cpu=True))
    assert one.stdout == hashlib.sha256(b"1").digest() and one.code == 0
