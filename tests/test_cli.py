"""CLI surface: config schema, command dispatch, report determinism, exit codes."""

import gc
import json
import subprocess
import sys

import numpy as np
import pytest

from stonework import cli
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


def test_vector_zero_on_every_fiber(tmp_path, capsys):
    zero = [[[0.0, 0.0], [0.0, 0.0]]] * 3
    path = write_config(tmp_path, {"n": 2, "m": 3, "vectors": {"z": zero}})
    code, out, _ = run_cli(["normalize", "--config", path, "--vector", "z"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["normalized"] == zero
    code, out, _ = run_cli(["e-a", "--config", path, "--vector", "z"], capsys)
    assert code == 0
    payload = json.loads(out)
    results = payload["results"]
    assert results["normalized"] == zero and results["gram"] == [[0.0, 0.0]] * 3
    assert results["carrier"] == [[0.0, 0.0]] * 3
    assert {"name": "abelian", "passed": True} in payload["properties"]


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
    either side of it; shifting the spectrum away by more than 1e-8 times
    max(1, spectral radius) fails it."""
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


@pytest.mark.parametrize("radius", [0.5, 100.0])
@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_observable_image_check_boundary(tmp_path, capsys, monkeypatch, radius, inside):
    """The image check passes when every image value lies within
    1e-8 * max(1, spectral radius) of a spectrum value, and fails just outside."""
    from stonework import observables as ob

    diag = {"n": 2, "m": 1, "elements": {"A": [[[[0.25, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}}
    path = write_config(tmp_path, diag)
    shift = 1e-8 * max(1.0, radius) * (0.99 if inside else 1.01)
    spectrum = np.array([-radius, 0.25 - shift, 0.5 + shift])
    monkeypatch.setattr(ob, "spectrum_values", lambda a, tol: spectrum)
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    payload = json.loads(out)
    assert payload["results"]["image"] == [0.25, 0.5]
    assert code == (0 if inside else 1) and payload["passed"] is inside


def hermitian_config(gen, m, n, scale):
    b = gen.standard_normal((m, n, n)) + 1j * gen.standard_normal((m, n, n))
    a = scale * 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
    return {"n": n, "m": m, "elements": {"A": np.stack([a.real, a.imag], axis=-1).tolist()}}


def test_observable_image_check_is_relative_to_spectral_radius(tmp_path, capsys):
    # at |lambda| up to about 5e9 the eigh image and the eigvalsh spectrum
    # differ by a few ulps, about 3e-6, which an absolute 1e-8 rejected
    path = write_config(tmp_path, hermitian_config(np.random.default_rng(0), 50, 4, 1e9))
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert max(map(abs, payload["results"]["spectrum"])) > 1e9
    assert payload["properties"] == [{"name": "image_in_spectrum", "passed": True, "tolerance": 1e-8}]


def test_observable_wrong_image_fails_at_unit_scale(tmp_path, capsys, monkeypatch):
    from stonework import observables as ob

    path = write_config(tmp_path, hermitian_config(np.random.default_rng(1), 5, 3, 0.5))
    argv = ["observable", "--config", path, "--op", "A"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and max(map(abs, json.loads(out)["results"]["spectrum"])) < 2
    real = ob.observable_values
    monkeypatch.setattr(ob, "observable_values", lambda *a: real(*a) + 1e-6)
    code, out, _ = run_cli(argv, capsys)
    assert code == 1 and json.loads(out)["properties"][0]["passed"] is False


def test_observable_eigenline_sample_builds_no_quasipoint(tmp_path, capsys, monkeypatch):
    from stonework import spectrum as sp

    built = []
    init = sp.Quasipoint.__init__
    monkeypatch.setattr(sp.Quasipoint, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    assert code == 0 and len(json.loads(out)["results"]["rows"]) == 4
    assert built == []
    # the counter sees the points that --point parses
    code, out, _ = run_cli(
        ["observable", "--config", path, "--op", "A", "--point", "omega=1,line=b"], capsys
    )
    assert code == 0 and len(built) == 1


def test_observable_decomposes_the_operator_once(tmp_path, capsys, monkeypatch):
    # the spectral family and the eigenline sample share one eigh; the
    # spectrum check keeps its own eigvalsh
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, f=real, k=name: calls.append(k) or f(*a))
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    assert code == 0 and len(json.loads(out)["results"]["rows"]) == 4
    assert sorted(calls) == ["eigh", "eigvalsh"]


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


def test_quasipoints_without_projections_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, {**BASE_CONFIG, "elements": {"A": BASE_CONFIG["elements"]["A"]}})
    code, out, err = run_cli(["quasipoints", "--config", path], capsys)
    assert code == 3 and out == ""
    assert "no projection generators available for the lattice" in err


def test_closure_past_table_budget_exit_3(tmp_path, capsys, monkeypatch):
    # the central projections of 4 points close to 16 nodes; a table budget
    # of 50 bytes holds the tables of 2 nodes (9 bytes per node pair)
    from stonework import lattice

    units = np.eye(4).reshape(4, 4, 1, 1, 1) * [1, 0]
    elements = {f"C{k}": units[k].tolist() for k in range(4)}
    path = write_config(tmp_path, {"n": 1, "m": 4, "elements": elements})
    code, out, _ = run_cli(["quasipoints", "--config", path], capsys)
    assert code == 0 and json.loads(out)["results"]["size"] == 16
    monkeypatch.setattr(lattice, "_TABLE_BUDGET", 50)
    code, out, err = run_cli(["quasipoints", "--config", path], capsys)
    assert code == 3 and out == ""
    assert "closure reached 3 nodes" in err and "table budget of 50 bytes" in err


def test_config_past_operator_budget_exit_3(tmp_path, capsys):
    # one operator would take 16 m n^2 = 32 TB; the check runs before np.eye(n) for the point
    path = write_config(tmp_path, {"n": 1000000, "m": 2})
    code, out, err = run_cli(["zeta", "--config", path, "--point", "omega=0,line=e1"], capsys)
    assert code == 3 and out == ""
    assert "one operator takes 32000000000000 bytes, past the budget of 536870912 bytes" in err


def test_unknown_command_exit_4(capsys):
    assert main(["no-such-command"]) == 4


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["normalize", "--config", str(path), "--vector", "a"]) == 2


@pytest.mark.parametrize(
    "payload", [b'{"n": 1, "m": 1}\xff', b"[" * 100000], ids=["not-utf8", "deep-nesting"]
)
def test_undecodable_config_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(ParseError):
        load_config(str(path))
    code, out, err = run_cli(["quasipoints", "--config", str(path)], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "data, argv, message",
    [
        (
            {"n": True, "m": 1, "vectors": {"v": [[[1, 0]]]}},
            ["normalize", "--vector", "v"],
            "config field 'n' must be a positive integer",
        ),
        (
            {"n": 1, "m": True},
            ["zeta", "--point", "omega=0,line=e1"],
            "config field 'm' must be a positive integer",
        ),
        (
            {"n": 1, "m": 1, "seed": True},
            ["zeta", "--point", "omega=0,line=e1"],
            "config field 'seed' must be an integer",
        ),
    ],
    ids=["n", "m", "seed"],
)
def test_boolean_config_field_exit_3(tmp_path, capsys, data, argv, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(data)
    path = write_config(tmp_path, data)
    code, out, err = run_cli([argv[0], "--config", path, *argv[1:]], capsys)
    assert code == 3 and out == ""
    assert message in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--vector", "big"],
        ["e-a", "--vector", "big"],
        ["orbit", "--from", "omega=1,line=big", "--to", "omega=1,line=e1"],
        ["zeta", "--point", "omega=1,line=big"],
        ["observable", "--op", "A", "--point", "omega=1,line=big"],
    ],
    ids=lambda argv: argv[0],
)
def test_vector_norm_overflow_exit_3(tmp_path, capsys, argv):
    # every entry is finite, but norm^2 of fiber 1 is not
    big = [[[1, 0], [0, 0]], [[1e200, 0], [0, 0]]]
    data = {**BASE_CONFIG, "vectors": {**BASE_CONFIG["vectors"], "big": big}}
    path = write_config(tmp_path, data)
    code, out, err = run_cli([argv[0], "--config", path, *argv[1:]], capsys)
    assert code == 3 and out == ""
    assert "vectors[big][1]: squared norm overflows float64" in err


@pytest.mark.parametrize(
    "rows",
    [[[1e308, 1e308], [1e308, -1e308]], [[8e307] * 3] * 3],
    ids=["hermitize-overflow", "eigenvalue-overflow"],
)
def test_observable_eigenvalue_overflow_exit_3(tmp_path, capsys, rows):
    # every entry is finite, but the symmetrized operator or its top
    # eigenvalue is not; no NaN or Infinity token may reach the report
    op = [[[[x, 0] for x in row] for row in rows]]
    path = write_config(tmp_path, {"n": len(rows), "m": 1, "elements": {"A": op}})
    code, out, err = run_cli(["observable", "--config", path, "--op", "A"], capsys)
    assert code == 3 and out == ""
    assert "eigenvalues are not finite" in err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["observable", "--op", "A"], 3, "operator eigenvalues are not finite in float64"),
        (["observable", "--op", "A", "--point", "omega=0,line=e1"], 3,
         "operator eigenvalues are not finite in float64"),
        (["abelian-check", "--op", "A"], 1, None),
        (["central-carrier", "--op", "A"], 3,
         "operator is not a fiberwise projection at eps=1e-09"),
        (["quasipoints"], 3, "no projection generators available for the lattice"),
    ],
    ids=["observable", "observable-point", "abelian-check", "central-carrier", "quasipoints"],
)
def test_huge_finite_config_prints_no_numpy_warning(tmp_path, argv, code, err):
    # the entries are finite, but hermitize and p @ p overflow to inf and NaN;
    # stderr holds the command's own message and nothing else
    op = [[[[x, 0] for x in row] for row in [[1e308, 1e308], [1e308, -1e308]]]]
    path = write_config(tmp_path, {"n": 2, "m": 1, "elements": {"A": op}})
    cmd = [sys.executable, "-m", "stonework.cli", argv[0], "--config", path, *argv[1:]]
    run = subprocess.run(cmd, capture_output=True, text=True)
    assert run.returncode == code
    assert run.stderr == ("" if err is None else f"stonework: {err}\n")


@pytest.mark.parametrize(
    "key, section", [("elements", [1]), ("vectors", "abc")], ids=["elements-list", "vectors-str"]
)
def test_config_section_not_object_exit_3(tmp_path, capsys, key, section):
    with pytest.raises(ValidationError, match=f"config field '{key}' must be a JSON object"):
        parse_config({"n": 1, "m": 1, key: section})
    path = write_config(tmp_path, {"n": 1, "m": 1, key: section})
    code, out, err = run_cli(["quasipoints", "--config", path], capsys)
    assert code == 3 and out == ""
    assert f"config field '{key}' must be a JSON object" in err


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


def test_verify_all_names_a_suite_whose_input_fails_a_precondition(capsys):
    # at eps 0 some sampled operators are not exact projections or unitaries;
    # each such suite fails with the exception in its detail, the rest still run
    from stonework.verify import ALL_SUITES

    code, out, _ = run_cli(["verify-all", "--seed", "0", "--eps", "0"], capsys)
    assert code == 1
    payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the report"))
    suites = payload["results"]["suites"]
    assert [s["name"] for s in suites] == [f.__name__.removeprefix("suite_") for f in ALL_SUITES]
    failed = {s["name"]: s for s in suites if not s["passed"]}
    assert set(failed) == {
        "central_carriers", "quasipoint_axioms", "all_quasipoints_abelian",
        "orbit_parametrization", "germ_structure", "transport_laws",
        "stone_topology", "observable_equivariance",
    }
    assert failed["central_carriers"]["detail"] == (
        "NotProjection: operator is not a fiberwise projection at eps=0.0"
    )
    assert failed["orbit_parametrization"]["detail"].startswith("NotUnitary: ")
    assert all(s["samples"] == 0 and s["max_residual"] == 1.0 for s in failed.values())


def test_run_all_lets_other_exceptions_through(monkeypatch):
    from stonework import verify
    from stonework.errors import NotProjection

    def suite_precondition(rng, tol):
        raise NotProjection("not a projection")

    def suite_bug(rng, tol):
        raise KeyError("bug")

    monkeypatch.setattr(verify, "ALL_SUITES", [suite_precondition])
    [result] = verify.run_all(0)
    assert result == verify.SuiteResult(
        "precondition", False, 0, 0.0, 1.0, "NotProjection: not a projection"
    )
    monkeypatch.setattr(verify, "ALL_SUITES", [suite_precondition, suite_bug])
    with pytest.raises(KeyError):
        verify.run_all(0)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two-to-the-64"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_outside_64_bits_exit_3(tmp_path, capsys, seed, source):
    # SplitMix64 reads its seed mod 2**64: 2**64 would replay seed 0
    if source == "flag":
        argv = ["verify-all", "--seed", str(seed)]
    else:
        argv = ["verify-all", "--config", write_config(tmp_path, {"n": 1, "m": 1, "seed": seed})]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert "0..2**64 - 1" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "largest"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_at_the_ends_of_64_bits_is_reported(tmp_path, capsys, seed, source):
    if source == "flag":
        argv = ["zeta", "--point", "omega=0,line=e1", "--seed", str(seed)]
    else:
        path = write_config(tmp_path, {"n": 1, "m": 1, "seed": seed})
        argv = ["zeta", "--config", path, "--point", "omega=0,line=e1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["seed"] == seed


def test_central_carrier_of_a_line_projection_is_its_support(tmp_path, capsys):
    line = np.array([0.6, 0.8j])
    fibers = [np.outer(line, line.conj()), np.zeros((2, 2)), np.diag([1.0, 0.0]), np.zeros((2, 2))]
    pairs = np.stack([np.real(fibers), np.imag(fibers)], axis=-1).tolist()
    path = write_config(tmp_path, {"n": 2, "m": 4, "elements": {"E": pairs}})
    code, out, _ = run_cli(["central-carrier", "--config", path, "--op", "E"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["carrier"] == [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert payload["properties"] == [{"name": "carrier_dominates", "passed": True}]


@pytest.mark.parametrize("target", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_exit_5(tmp_path, capsys, target):
    code, out, err = run_cli(["verify-all", "--config", str(tmp_path / target)], capsys)
    assert code == 5 and out == ""
    assert "cannot read config file" in err


class BrokenStream:
    """A stream whose every write fails, as on a closed pipe."""

    def write(self, text):
        raise OSError(32, "Broken pipe")

    def flush(self):
        pass


def test_emit_report_to_a_broken_stream_raises_ioerror():
    from stonework.report import Report, emit_report

    with pytest.raises(IOError, match="cannot write report: .*Broken pipe"):
        emit_report(Report(command="zeta", eps=1e-9, seed=0), stream=BrokenStream())


def test_broken_stdout_exit_5(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", BrokenStream())
    code = main(["zeta", "--point", "omega=0,line=e1"])
    assert code == 5
    assert "stonework: cannot write report" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["-h"]], ids=["no-arguments", "help"])
def test_usage_exit_0(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "Exit codes" in out


@pytest.mark.parametrize(
    "spec, message",
    [
        ("omega0", "bad quasipoint spec"),
        ("omega=0", "needs omega= and line="),
        ("omega=x,line=e1", "omega must be an integer"),
        ("omega=2,line=e1", "omega 2 outside the space of 2 points"),
        ("omega=0,line=e9", "basis line e9 outside dimension 2"),
        ("omega=1,line=z", "vector 'z' vanishes at fiber 1"),
    ],
    ids=["no-equals", "no-line", "omega-not-int", "omega-outside", "basis-outside", "vanishing"],
)
def test_bad_point_spec_exit_3(tmp_path, capsys, spec, message):
    path = write_config(tmp_path, {**BASE_CONFIG, "vectors": {"z": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}})
    code, out, err = run_cli(["zeta", "--config", path, "--point", spec], capsys)
    assert code == 3 and out == ""
    assert message in err


def test_point_from_tiny_vector(tmp_path, capsys):
    """A vector whose norm underflows is still a line: only all-zero entries vanish."""
    path = write_config(tmp_path, {**BASE_CONFIG, "vectors": {"t": [[[1e-200, 0], [0, 0]], [[0, 0], [0, 0]]]}})
    code, out, _ = run_cli(["zeta", "--config", path, "--point", "omega=0,line=t"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["point"] == {"omega": 0, "line": [[1.0, 0.0], [0.0, 0.0]]}


def test_config_root_not_object_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, [1, 2])
    code, out, err = run_cli(["verify-all", "--config", path], capsys)
    assert code == 3 and out == ""
    assert "config root must be a JSON object" in err


def test_text_format_shows_residuals():
    from stonework.report import Report, render_text

    prop = {"name": "suite", "passed": True, "max_residual": 2.5e-13, "tolerance": 1e-9}
    text = render_text(Report(command="verify-all", eps=1e-9, seed=0, properties=[prop]))
    assert "  [pass] suite  residual=2.500e-13 tol=1.0e-09\n" in text


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector state a caller of main starts with; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 0),
        (["zeta", "--point", "omega=0,line=e1"], 0),
        (["abelian-check", "--config", "{good}", "--op", "I"], 1),
        (["normalize", "--config", "{bad}", "--vector", "a"], 2),
        (["abelian-check", "--config", "{good}"], 3),
        (["normalize", "--config", "{good}", "--vector", "missing"], 3),
        (["no-such-command"], 4),
        (["verify-all", "--config", "{missing}"], 5),
    ],
    ids=["usage-0", "zeta-0", "property-1", "parse-2", "flag-3", "validation-3", "unknown-4", "io-5"],
)
def test_main_restores_the_collector_state(tmp_path, capsys, collector, argv, code):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    good, missing = write_config(tmp_path, BASE_CONFIG), str(tmp_path / "no.json")
    paths = {"good": good, "bad": str(bad), "missing": missing}
    assert run_cli([arg.format(**paths) for arg in argv], capsys)[0] == code
    assert gc.isenabled() is collector


def test_main_restores_the_collector_state_when_a_handler_raises(capsys, monkeypatch, collector):
    def bug(*args):
        assert not gc.isenabled()
        raise KeyError("bug")

    monkeypatch.setitem(cli._HANDLERS, "zeta", bug)
    with pytest.raises(KeyError):
        main(["zeta", "--point", "omega=0,line=e1"])
    assert gc.isenabled() is collector


def test_command_runs_with_the_collector_paused(capsys, monkeypatch):
    seen, real = [], cli._HANDLERS["zeta"]
    monkeypatch.setitem(cli._HANDLERS, "zeta", lambda *a: seen.append(gc.isenabled()) or real(*a))
    assert gc.isenabled()
    code, out, _ = run_cli(["zeta", "--point", "omega=0,line=e1"], capsys)
    assert code == 0 and json.loads(out)["results"]["omega"] == 0
    assert seen == [False] and gc.isenabled()


def line_per_fiber_config(gen, m, n):
    """Generator k is a random line projection on fiber k and zero elsewhere."""
    u = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    g = np.zeros((m, m, n, n), dtype=complex)
    g[np.arange(m), np.arange(m)] = np.einsum("mi,mj->mij", u, u.conj())
    pairs = np.stack([g.real, g.imag], axis=-1)
    return {"n": n, "m": m, "elements": {f"G{k}": pairs[k].tolist() for k in range(m)}}


@pytest.mark.parametrize("command", ["verify-all", "quasipoints", "observable"])
def test_command_leaves_little_cyclic_garbage(tmp_path, capsys, command):
    """The paused collector lets a command's reference cycles wait for the
    next collection; every command leaves only a few dozen (argparse's parser)."""
    if command == "verify-all":
        argv = ["verify-all", "--seed", "0"]
    elif command == "quasipoints":
        path = write_config(tmp_path, line_per_fiber_config(np.random.default_rng(1), 6, 2))
        argv = ["quasipoints", "--config", path]
    else:
        path = write_config(tmp_path, hermitian_config(np.random.default_rng(2), 1000, 4, 1.0))
        argv = ["observable", "--config", path, "--op", "A"]
    was = gc.isenabled()
    gc.disable()  # no automatic collection between the command and the count
    try:
        gc.collect()
        code = main(argv)
        found = gc.collect()
    finally:
        (gc.enable if was else gc.disable)()
    out = capsys.readouterr().out
    assert code == 0
    if command == "quasipoints":
        assert json.loads(out)["results"]["size"] == 65
    assert 0 < found < 200
