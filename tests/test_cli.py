"""Command-line interface: subcommands, exit codes, and file formats."""

import json

import numpy as np
import pytest

from covwit import linalg, quo, s3, serialize, werner3
from covwit.cli import main, parse_coeffs, parse_number
from covwit.linalg import ContractError
from covwit.werner3 import rho_t_coeffs


def run(argv):
    return main(argv)


def test_parse_number_rationals_and_decimals():
    assert parse_number("1/3") == 1.0 / 3.0
    assert parse_number("-2/6") == -1.0 / 3.0
    assert parse_number("0.25") == 0.25
    with pytest.raises(ContractError):
        parse_number("abc")
    with pytest.raises(ContractError):
        parse_number("1/0")
    for text in ("1_0", "\uff11\uff12", "\u0661\u0662", "1_0/3", "inf",
                 "nan"):  # ASCII decimals and p/q only
        with pytest.raises(ContractError, match="cannot parse number"):
            parse_number(text)
    assert parse_number(" +1.5e-3 ") == 1.5e-3
    assert parse_number(".5") == parse_number("5.") / 10 == 0.5


def test_parse_coeffs():
    assert parse_coeffs("1,2,3,4,5,6") == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ContractError):  # from_tuple6 counts the values
        werner3.S3Coeffs.from_tuple6(3, parse_coeffs("1,2,3"))


def test_certify_hh_vertex(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "hh", "--d", "3", "--a", "1", "--b", "1/3",
                "--c", "1/3", "--json", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["verdict"] == "EB"
    assert obj["checks"]["ppt"]["verdict"] in ("true", "boundary")
    assert "verdict: EB" in capsys.readouterr().out


def test_certificate_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "hh", "--d", "3", "--a", "0.9", "--b", "0.1",
            "--c", "0.05"]
    assert run(args + ["--json", str(a)]) == 0
    assert run(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_library_and_cli_share_the_witness_grid_default(capsys):
    """0.963 rho_t(3, 1) + 0.037 I/27: L0 does not fire and no grid-16
    row does; the exact Type III row does, at every grid, and the library
    and `certify` agree."""
    text = ("0.028689519306540585,0,0.02048936170212766,0,"
            "0.006829787234042553,0")
    c = werner3.S3Coeffs.from_tuple6(3, parse_coeffs(text))
    verdict = werner3.detect_entanglement_w3(c).verdict
    assert run(["certify", "werner3", "--d", "3", "--coeffs", text]) == 0
    assert capsys.readouterr().out.endswith(f"verdict: {verdict}\n")
    assert verdict == "ENTANGLED"


@pytest.mark.parametrize("family", ["werner3", "quo"])
def test_certify_without_grid_is_grid_16(family, tmp_path, capsys):
    """`certify` writes the library's default certificate, the grid-16 one,
    and refuses --grid like any unknown argument."""
    argv = ["certify", family, "--d", "3", "--coeffs", "1/27,0,0,0,0,0"]
    out = tmp_path / "cert.json"
    assert run(argv + ["--json", str(out)]) == 0
    cls, decide = ((werner3.S3Coeffs, werner3.detect_entanglement_w3)
                   if family == "werner3" else (quo.QuoCoeffs, quo.decide_quo))
    c = cls.from_tuple6(3, parse_coeffs("1/27,0,0,0,0,0"))
    g16 = decide(c, grid=16).to_json()
    assert out.read_text() == decide(c).to_json() == g16
    assert g16 != decide(c, grid=8).to_json()
    capsys.readouterr()
    _one_line_error(capsys, argv + ["--grid", "16"])


def test_certify_werner3_ppt_entangled_state_at_every_grid(tmp_path):
    """An A-BC-PPT state that L0 and every grid-2 row miss is ENTANGLED by
    the same exact Type III witness at grid 2, 16 and 64, and `certify`
    writes the grid-16 certificate."""
    coeffs = ("166523776510/5029999975503,1936168780/186296295389,"
              "-15874292672/1676666658501,2521386712/558888886167,"
              "3552377465/372592590778,0")
    state = werner3.S3Coeffs.from_tuple6(3, parse_coeffs(coeffs))
    certs = [json.loads(werner3.detect_entanglement_w3(state, grid=g)
                        .to_json()) for g in (2, 16, 64)]
    assert all(c["verdict"] == "ENTANGLED" for c in certs)
    assert certs[0]["checks"]["ppt_A-BC"]["verdict"] == "true"
    assert certs[0]["witnesses"][1]["id"].startswith("III[")
    assert certs[0]["witnesses"] == certs[1]["witnesses"] == certs[2][
        "witnesses"]
    out = tmp_path / "cert.json"
    assert run(["certify", "werner3", "--d", "3", "--coeffs", coeffs,
                "--json", str(out)]) == 0
    assert json.loads(out.read_text()) == certs[1]


def test_certify_werner3_rho_t(capsys):
    c = rho_t_coeffs(3, 1.0)
    coeffs = ",".join("%.17g" % v for v in c.as_tuple6())
    code = run(["certify", "werner3", "--d", "3", "--coeffs", coeffs])
    assert code == 0
    assert "verdict: ENTANGLED" in capsys.readouterr().out


def test_certify_quo_mixed_state(capsys):
    code = run(["certify", "quo", "--d", "3", "--coeffs",
                "1/27,0,0,0,0,0"])
    assert code == 0
    assert "verdict: SEPARABLE" in capsys.readouterr().out


def test_certify_quo_at_d_1e9_sweeps_every_row(tmp_path):
    """No catalogue row is refused at d = 10^9: 2 fixed rows and 4 per
    point of the grid-16 table."""
    out = tmp_path / "quo-1e9.json"
    assert run(["certify", "quo", "--d", "1000000000", "--coeffs",
                "1e-27,0,0,0,0,0", "--json", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "SEPARABLE"
    assert cert["checks"]["witness_sweep"]["evidence"]["count"] == 1026


def test_state_rho_t_roundtrip(tmp_path, capsys):
    out = tmp_path / "rho.json"
    assert run(["state", "rho-t", "--d", "3", "--t", "1", "--out",
                str(out)]) == 0
    rho = serialize.read_matrix(out)
    assert rho.shape == (27, 27)
    assert np.isclose(np.trace(rho).real, 1.0)


def test_witness_apply(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    state = tmp_path / "rho.json"
    serialize.dump_json({"family": "werner3-L", "d": 3, "coeffs": {
        "a_e": 1.0, "a_12": 1.0, "a_13": -1.0, "a_23": 1.0,
        "re_123": -1.0, "im_123": 0.0}}, wit)
    assert run(["state", "rho-t", "--d", "3", "--t", "1", "--out",
                str(state)]) == 0
    capsys.readouterr()
    assert run(["witness", "apply", "--witness", str(wit), "--state",
                str(state), "--adjoint"]) == 0
    text = capsys.readouterr().out
    lo = float(text.split("min_eig:")[1].splitlines()[0])
    assert abs(lo + (2 / 3) / 47) < 1e-9


def test_twirl_oo_product_state(tmp_path, capsys):
    """xi (x) xi with xi = (|1> + i|2>)/sqrt(2) twirls to P2 / rank(P2), so
    its coefficients over (P1, P2, P3) are (0, 1/rank(P2), 0)."""
    d = 3
    xi = np.zeros(d, dtype=complex)
    xi[0] = 1 / np.sqrt(2)
    xi[1] = 1j / np.sqrt(2)
    psi = np.kron(xi, xi)
    mfile = tmp_path / "m.json"
    ofile = tmp_path / "o.json"
    serialize.write_matrix(np.outer(psi, psi.conj()), mfile)
    assert run(["twirl", "--family", "oo", "--matrix-file", str(mfile),
                "--out", str(ofile)]) == 0
    from covwit.twirl import oo_basis
    p2 = oo_basis(d).elements[1]
    got = serialize.read_matrix(ofile)
    assert np.abs(got - p2 / 5).max() < 1e-12
    line = capsys.readouterr().out.splitlines()[0]
    coeffs = json.loads(line.removeprefix("coefficients: "))
    assert np.abs(np.array(coeffs) - [[0, 0], [0.2, 0], [0, 0]]).max() < 1e-12


def test_twirl_hh_needs_no_d_cubed_build(tmp_path):
    """An hh twirl at d = 17 builds 289 x 289 operators only; a 4913 x 4913
    uuu build would be past the size cap."""
    rng = np.random.default_rng(17)
    mfile = tmp_path / "m.json"
    ofile = tmp_path / "o.json"
    x = rng.standard_normal((289, 289))
    serialize.write_matrix(x, mfile)
    assert run(["twirl", "--family", "hh", "--matrix-file", str(mfile),
                "--out", str(ofile)]) == 0
    from covwit.twirl import cond_expect, hh_basis
    got = serialize.read_matrix(ofile)
    assert np.abs(got - cond_expect(x, hh_basis(17))).max() < 1e-12


@pytest.mark.parametrize("family", ["hh", "oo"])
def test_twirl_on_d_squared_builds_no_V(tmp_path, monkeypatch, family):
    from covwit import twirl

    def refuse(sigma, d):
        raise AssertionError("build_V called")

    monkeypatch.setattr(twirl, "build_V", refuse)
    mfile = tmp_path / "m.json"
    serialize.write_matrix(np.eye(9), mfile)
    assert run(["twirl", "--family", family, "--matrix-file",
                str(mfile)]) == 0


@pytest.mark.parametrize("family", ["hh", "uuu", "uubaru", "oo"])
def test_twirl_of_a_1x1_matrix_is_an_input_error(tmp_path, capsys, family):
    mfile = tmp_path / "m.json"
    serialize.write_matrix(np.eye(1), mfile)
    _one_line_error(capsys, ["twirl", "--family", family, "--matrix-file",
                             str(mfile)])


def test_regions_vertices(capsys):
    assert run(["regions", "hh", "--d", "3", "--emit", "vertices"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("cp ") for ln in lines) == 4
    assert sum(ln.startswith("ccp") for ln in lines) == 4
    text = "\n".join(lines)
    assert text.count("ppt v") == 8 and text.count("wh w") == 4
    capsys.readouterr()
    assert run(["regions", "hh", "--d", "3", "--emit", "inequalities"]) == 0


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "hh", "--d", "3", "--grid", "5", "--out",
                str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().splitlines()
    assert lines[0] == "a,b,c,positive,cp,ccp,ppt,eb"
    assert len(lines) == 1 + 5**3  # header + exactly grid^3 rows
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == 8
        assert parts[6] == parts[7]  # eb == ppt on this family
    a, b, c = (sorted({float(ln.split(",")[k]) for ln in lines[1:]})
               for k in range(3))
    assert a == s3.linspace(0.0, 1.5, 5) and b == c == s3.linspace(-1, 1, 5)


def test_exit_code_invalid_input(capsys):
    for text in ("x", "1_0", "\uff11\uff12", "\u0661\u0662"):
        assert run(["certify", "hh", "--d", "3", "--a", text, "--b", "0",
                    "--c", "0"]) == 1
    assert run(["certify", "werner3", "--d", "3", "--coeffs", "1,2,3"]) == 1
    assert run(["certify", "werner3", "--d", "3", "--coeffs",
                "1,2,3,4,5,6,7"]) == 1
    # |a_123| past the float range while its parts are finite
    assert run(["certify", "werner3", "--d", "3", "--coeffs",
                "0,0,0,0,1.5e308,1.5e308"]) == 1
    assert run(["certify", "werner3", "--d", "2", "--coeffs",
                "1,0,0,0,0,0"]) == 1
    assert run(["sweep", "hh", "--d", "3", "--grid", "1"]) == 1
    assert run(["sweep", "hh", "--d", "3", "--grid",
                str(s3.MAX_GRID + 1)]) == 1
    assert run(["twirl", "--family", "oo", "--matrix-file",
                "/nonexistent.json"]) == 1
    # the trace bound grows with the trace's terms, not with d^3 alone
    for fam in ("werner3", "quo"):
        for d in (2155, 10**4):
            assert run(["certify", fam, "--d", str(d), "--coeffs",
                        "0,0,0,0,0,0"]) == 1
        assert run(["certify", fam, "--d", "465", "--coeffs",
                    f"{0.99 / 465**3!r},0,0,0,0,0"]) == 1
    capsys.readouterr()
    huge = str(linalg.MAX_INT + 1)  # past the largest exact float integer
    for argv in (["certify", "hh", "--a", "1", "--b", "0", "--c", "0"],
                 ["certify", "werner3", "--coeffs", "1,0,0,0,0,0"],
                 ["certify", "quo", "--coeffs", "1,0,0,0,0,0"],
                 ["state", "rho-t", "--t", "1"],
                 ["regions", "hh", "--emit", "vertices"],
                 ["sweep", "hh", "--grid", "2"]):
        _one_line_error(capsys, argv + ["--d", huge])
    assert run(["state", "rho-t", "--d", str(linalg.MAX_INT), "--t", "1"]) == 0
    capsys.readouterr()
    _one_line_error(capsys, ["sweep", "hh", "--d", "1", "--grid", "2"])
    _one_line_error(capsys, ["selftest", "--seed", "-1"])
    _one_line_error(capsys, ["state", "rho-t", "--d", "3", "--t", "1e308"])


@pytest.mark.parametrize("argv", [
    ["certify", "hh", "--d", "3", "--a", "1", "--b", "0", "--c", "0"],
    ["certify", "quo", "--d", "3", "--coeffs", "1/27,0,0,0,0,0"],
    ["state", "rho-t", "--d", "3", "--t", "1"],
    ["regions", "hh", "--d", "3", "--emit", "vertices"],
    ["sweep", "hh", "--d", "3", "--grid", "2"],
], ids=["certify", "certify-quo", "state", "regions", "sweep"])
def test_flags_nothing_reads_are_gone(argv, capsys):
    """Only selftest takes a seed, and no command takes a tolerance: the
    boundary band is a constant."""
    assert run(argv) == 0
    capsys.readouterr()
    for flag in (["--seed", "3"], ["--tol-psd", "0.5"], ["--tol-eq", "0.5"]):
        _one_line_error(capsys, argv + flag)


def _one_line_error(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_malformed_json_files_are_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": ')
    state = tmp_path / "rho.json"
    serialize.write_matrix(np.eye(27) / 27, state)
    _one_line_error(capsys, ["witness", "apply", "--witness", str(bad),
                             "--state", str(state)])
    _one_line_error(capsys, ["twirl", "--family", "oo", "--matrix-file",
                             str(bad)])
    w3 = {"a_e": 1, "a_12": 0, "a_13": 0, "a_23": 0, "re_123": 0}
    for obj in ({"family": "werner3-L", "d": 3},
                {"family": "quo-M", "d": 3, "coeffs": [1, 0, 0, 0, 0, 0]},
                [1, 2],
                {"family": "werner3-L", "d": 3, "coeffs": {**w3, "a_e": "x"}},
                {"family": "hh", "d": 3, "coeffs": {"a": "x", "b": 0, "c": 0}},
                {"family": "werner3-L", "d": "x", "coeffs": w3},
                {"family": "werner3-L", "d": 3.7, "coeffs": w3},
                {"family": "werner3-L", "d": 3,
                 "coeffs": {**w3, "a_e": True}}):
        wit = tmp_path / "map.json"
        serialize.dump_json(obj, wit)
        _one_line_error(capsys, ["witness", "apply", "--witness", str(wit),
                                 "--state", str(state)])
    one = {"rows": 1, "cols": 1, "data": [[1, 0]]}
    wit = tmp_path / "wit.json"
    serialize.dump_json({"d_in": 1, "d_out": 1, "choi_unnormalized": one},
                        wit)
    for obj in ({**one, "rows": "x"}, {**one, "rows": 1.5},
                {**one, "data": [5]}, {**one, "data": [["1", "0"]]},
                {**one, "data": 5}):
        serialize.dump_json(obj, state)
        _one_line_error(capsys, ["witness", "apply", "--witness", str(wit),
                                 "--state", str(state)])


def test_dense_builds_above_the_cap_are_input_errors(tmp_path, capsys):
    _one_line_error(capsys, ["state", "rho-t", "--d", "40", "--t", "1",
                             "--out", str(tmp_path / "rho.json")])
    _one_line_error(capsys, ["certify", "hh", "--d", "65", "--a", "1",
                             "--b", "0", "--c", "0"])


def test_state_rho_t_builds_no_dense_matrix_without_out(capsys):
    assert run(["state", "rho-t", "--d", "40", "--t", "1"]) == 0
    trace = capsys.readouterr().out.split("trace:")[1].splitlines()[0]
    assert abs(float(trace) - 1.0) < 1e-12


@pytest.mark.parametrize("family, verdict", [
    ("werner3", "INCONCLUSIVE-AT-RESOLUTION"), ("quo", "SEPARABLE")],
    ids=["werner3", "quo"])
def test_certificates_need_no_dense_build(capsys, family, verdict):
    assert run(["certify", family, "--d", "40", "--coeffs",
                "1/64000,0,0,0,0,0"]) == 0
    assert f"verdict: {verdict}" in capsys.readouterr().out


def test_exit_code_usage_errors():
    assert run(["no-such-command"]) == 1
    assert run(["certify", "hh", "--d", "3"]) == 1  # missing required flags
    assert run(["--version"]) == 0


def test_selftest_subcommand(capsys):
    assert run(["selftest", "--level", "quick"]) == 0
    assert "selftest: PASS" in capsys.readouterr().out
