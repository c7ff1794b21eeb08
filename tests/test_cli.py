"""CLI surface: config schema, command dispatch, report determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from stonework.cli import main
from stonework.config import load_config, parse_config
from stonework.errors import ParseError, ValidationError


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE_CONFIG = {
    "n": 2,
    "m": 2,
    "seed": 7,
    "elements": {
        "A": [
            [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
            [[[3, 0], [0, 0]], [[0, 0], [4, 0]]],
        ],
        "P": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
        "I": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
    },
    "vectors": {
        "a": [[[3, 0], [0, 0]], [[0, 0], [4, 0]]],
        "b": [[[1, 0], [1, 0]], [[2, 0], [0, 0]]],
    },
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimal_config_valid():
    cfg = parse_config({"n": 1, "m": 1})
    assert cfg.n == 1 and cfg.m == 1 and cfg.seed == 0


def test_config_shape_validation():
    bad = {"n": 2, "m": 1, "elements": {"X": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]]}}
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,')
    with pytest.raises(ParseError):
        load_config(str(path))


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    cfg = load_config(path)
    assert set(cfg.elements) == {"A", "P", "I"}
    assert np.array_equal(
        cfg.elements["A"].values[1], np.diag([3.0, 4.0]).astype(complex)
    )
    assert np.array_equal(cfg.vectors["a"].values[0], np.array([3, 0], dtype=complex))


def test_normalize_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["normalize", "--config", path, "--vector", "a"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"]["normalized"] == [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0]],
    ]


@pytest.mark.parametrize("command", ["normalize", "e-a"])
def test_unclosed_near_axis_fiber_fails_gram_check(tmp_path, capsys, command):
    # one entry of size about 1, the other below the exact-unit adjustment's
    # floor: no candidate closes its gap, so its norm^2 stays one ulp off 1
    row = [
        [0.5602042747493572, -0.32591225633256854],
        [3.311684497780412e-07, -5.331825587706159e-06],
    ]
    path = write_config(tmp_path, {"n": 2, "m": 1, "vectors": {"a": [row]}})
    code, out, _ = run_cli([command, "--config", path, "--vector", "a"], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert {"name": "gram_is_boolean", "passed": False} in payload["properties"]
    assert payload["results"]["gram"][0][0] != 1.0


def test_abelian_check_pass_and_fail(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["abelian-check", "--config", path, "--op", "P"], capsys)
    assert code == 0 and json.loads(out)["results"]["abelian"] is True
    code2, out2, _ = run_cli(["abelian-check", "--config", path, "--op", "I"], capsys)
    assert code2 == 1  # identity is a projection but not abelian: property fails
    assert json.loads(out2)["results"]["abelian"] is False


def test_e_a_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["e-a", "--config", path, "--vector", "a"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["gram"] == [[1.0, 0.0], [1.0, 0.0]]
    fiber0 = payload["results"]["projection"][0]
    assert fiber0 == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def test_zeta_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["zeta", "--config", path, "--point", "omega=1,line=e2"], capsys
    )
    assert code == 0
    assert json.loads(out)["results"]["omega"] == 1


def test_orbit_command_emits_unitary(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["orbit", "--config", path, "--from", "omega=0,line=e1", "--to", "omega=0,line=e2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["same_class"] is True
    u = payload["results"]["unitary"]
    assert u[0] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    assert u[1] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_orbit_command_separates_classes(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["orbit", "--config", path, "--from", "omega=0,line=e1", "--to", "omega=1,line=e1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["same_class"] is False
    assert payload["results"]["unitary"] is None


def test_observable_command_named_diagonal(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["image"] == [1.0, 2.0, 3.0, 4.0]
    assert payload["results"]["spectrum"] == [1.0, 2.0, 3.0, 4.0]
    code2, out2, _ = run_cli(
        ["observable", "--config", path, "--op", "A", "--point", "omega=0,line=e2"],
        capsys,
    )
    rows = json.loads(out2)["results"]["rows"]
    assert len(rows) == 1 and rows[0]["value"] == 2.0


def test_observable_one_value_spectrum(tmp_path, capsys):
    path = write_config(tmp_path, {"n": 1, "m": 1, "elements": {"A": [[[[2.5, 0]]]]}})
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["image"] == [2.5] and results["spectrum"] == [2.5]


def test_observable_image_check_uses_both_neighbours(tmp_path, capsys, monkeypatch):
    """The image check compares each image value with the spectrum values on
    either side of it; shifting the spectrum away by more than 1e-8 fails it."""
    from stonework import observables as ob

    diag = {"n": 2, "m": 1, "elements": {"A": [[[[1, 0], [0, 0]], [[0, 0], [3, 0]]]]}}
    path = write_config(tmp_path, diag)
    argv = ["observable", "--config", path, "--op", "A"]
    # 1 and 3 sit just above their nearest spectrum values, which lie below them
    below = np.array([1 - 1e-9, 3 - 1e-9, 7.0])
    monkeypatch.setattr(ob, "spectrum_values", lambda a, tol: below)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    monkeypatch.setattr(ob, "spectrum_values", lambda a, tol: np.array([1 + 1e-7, 3 + 1e-7]))
    code, out, _ = run_cli(argv, capsys)
    assert code == 1 and json.loads(out)["properties"][0]["passed"] is False


def test_germ_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["germ", "--config", path, "--vector", "b", "--beta", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["results"]["germ"] == [[1.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("beta", ["5", "2", "-1"])
def test_germ_beta_outside_space_exit_3(tmp_path, capsys, beta):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, err = run_cli(["germ", "--config", path, "--vector", "b", "--beta", beta], capsys)
    assert code == 3 and out == ""
    assert f"beta {beta} outside the space of 2 points" in err


def test_quasipoints_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["quasipoints", "--config", path, "--ops", "P"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["size"] >= 3
    assert payload["results"]["quasipoints"]
    for point in payload["results"]["quasipoints"]:
        assert point["atom"] in point["members"]


def test_unknown_command_exit_4(capsys):
    assert main(["no-such-command"]) == 4


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["normalize", "--config", str(path), "--vector", "a"]) == 2


def test_validation_error_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, {"n": 2, "m": 1, "vectors": {"v": [[[1, 0]]]}})
    assert main(["normalize", "--config", str(path), "--vector", "v"]) == 3
    good = write_config(tmp_path, BASE_CONFIG, "good.json")
    assert main(["normalize", "--config", good, "--vector", "missing"]) == 3


@pytest.mark.parametrize(
    "number", ["1e400", "NaN", "1" + "0" * 399], ids=["overflow", "nan", "huge-int"]
)
def test_non_finite_config_number_exit_3(tmp_path, capsys, number):
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 1, "m": 1, "elements": {"A": [[[[%s, 0]]]]}}' % number)
    code, out, err = run_cli(["central-carrier", "--config", str(path), "--op", "A"], capsys)
    assert code == 3 and out == ""
    assert "elements[A][0][0][0]" in err


def test_config_errors_name_the_entry():
    with pytest.raises(ValidationError, match=r"vectors\[v\]\[1\]: expected a list of 2"):
        parse_config({"n": 2, "m": 2, "vectors": {"v": [[[1, 0], [0, 0]], [[1, 0]]]}})
    with pytest.raises(ValidationError, match=r"A\]\[0\]\[1\]\[0\]: expected a \[re, im\] pair"):
        parse_config({"n": 2, "m": 1, "elements": {"A": [[[[1, 0], [0, 0]], [[0], [1, 0]]]]}})
    with pytest.raises(ValidationError, match=r"A\]\[0\]\[0\]\[1\]: expected finite"):
        parse_config({"n": 2, "m": 1, "elements": {"A": [[[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]]}})


def test_config_keeps_signed_zeros():
    cfg = parse_config({"n": 1, "m": 2, "vectors": {"v": [[[-0.0, -0.0]], [[1, -0.0]]]}})
    values = cfg.vectors["v"].values
    assert np.all(np.signbit(values.imag)) and np.signbit(values.real[0, 0])


def test_bad_eps_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["normalize", "--config", path, "--vector", "a", "--eps", "0.5"]) == 3


def test_missing_required_flag_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, err = run_cli(["abelian-check", "--config", path], capsys)
    assert code == 3 and out == ""
    assert "--op" in err


def test_bad_format_choice_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, err = run_cli(
        ["abelian-check", "--config", path, "--op", "P", "--format", "xml"], capsys
    )
    assert code == 3 and out == ""
    assert "--format" in err


def test_empty_report_is_valid_json(capsys):
    from stonework.report import Report, render_json

    text = render_json(Report(command="zeta", eps=1e-9, seed=0))
    payload = json.loads(text)
    assert payload["results"] == {} and payload["passed"] is True


def test_text_format(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["abelian-check", "--config", path, "--op", "P", "--format", "text"], capsys
    )
    assert code == 0
    assert "overall: pass" in out
    assert "timing:" in out


def test_verify_all_schema_and_exit(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(
        ["verify-all", "--config", path, "--seed", "11"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    suites = payload["results"]["suites"]
    assert len(suites) >= 10
    for s in suites:
        assert set(s) == {"name", "passed", "samples", "tolerance", "max_residual", "detail"}
        assert s["passed"] is True
    assert payload["passed"] is True


def test_verify_all_deterministic_bytes(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    cmd = [sys.executable, "-m", "stonework.cli", "verify-all", "--config", path, "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout) > 100
