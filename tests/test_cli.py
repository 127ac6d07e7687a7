import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from perfbase import cli, construct, rmcode, tensor3
from perfbase.cli import (
    dumps_certificate,
    field_from_json,
    load_certificate,
    main,
    matrix_from_json,
    matrix_to_json,
    reverify,
)
from perfbase.errors import ParametersOutOfRange
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import field_make
from perfbase.tensor3 import BaseCandidate

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXDIR = os.path.join(ROOT, "fixtures")


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "perfbase", *args],
                          capture_output=True, text=True, **kw)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_construct_writes_verified_certificate(tmp_path):
    out = tmp_path / "cert.json"
    proc = run_cli(["construct", "dual-powers", "--p", "5", "--m", "4",
                    "--s", "3", "--bottom", "1,0,0,0", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = last_json(proc)
    assert verdict["ok"] and verdict["base_size"] == 13
    proc = run_cli(["verify", str(out)])
    assert proc.returncode == 0
    assert last_json(proc)["ok"]


def test_construct_rejects_small_field():
    proc = run_cli(["construct", "dual-powers", "--p", "2", "--m", "4",
                    "--s", "3", "--bottom", "1,0,0,0"])
    assert proc.returncode == 2
    assert not last_json(proc)["ok"]


def test_construct_gabidulin_dual(tmp_path):
    out = tmp_path / "gd.json"
    proc = run_cli(["construct", "gabidulin-dual-mtr", "--p", "3",
                    "--m", "3", "--n", "3", "--out", str(out)])
    assert proc.returncode == 0
    assert last_json(proc)["base_size"] == 7
    proc = run_cli(["verify", str(out)])
    assert proc.returncode == 0
    verdict = last_json(proc)
    assert verdict["code_checks"]["mtr_ok"]


def test_verify_detects_perturbation(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["construct", "dual-powers", "--p", "5", "--m", "4", "--s", "3",
             "--bottom", "2,1,0,3", "--out", str(out)])
    cert = load_certificate(str(out))
    cert["base"][0]["entries"][0][0] = (cert["base"][0]["entries"][0][0] + 1) % 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    proc = run_cli(["verify", str(bad)])
    assert proc.returncode == 1
    verdict = last_json(proc)
    assert not verdict["ok"]
    assert verdict["checks"]["bad_rank_index"] == 0


def test_verify_malformed_input(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    assert run_cli(["verify", str(bad)]).returncode == 2
    assert run_cli(["verify", str(tmp_path / "missing.json")]).returncode == 2


@pytest.mark.parametrize("name", [
    "dual_powers_f5_m4_s3.cert.json",
    "rect_family_f7_m5_n3.cert.json",
    "inverse_family_f7_m5.cert.json",
    "extension_f5_m4.cert.json",
    "gabidulin_dual_f3_m3_n3.cert.json",
])
def test_shipped_fixtures_verify(name):
    path = os.path.join(FIXDIR, name)
    proc = run_cli(["verify", path])
    assert proc.returncode == 0, proc.stdout
    assert last_json(proc)["ok"]


def test_verify_rejects_code_space_other_than_target(tmp_path):
    # L.C.N has the same dimension and distance as C but is another space,
    # which the stored base does not cover
    cert = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    F3 = field_make(3)
    L = FqMatrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    N = FqMatrix(F3, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    code = [matrix_from_json(F3, o) for o in cert["code"]["space_basis"]]
    moved = [L @ B @ N for B in code]
    assert MatrixSpace.from_matrices(moved) != MatrixSpace.from_matrices(code)
    cert["code"]["space_basis"] = [matrix_to_json(B) for B in moved]
    bad = tmp_path / "moved.json"
    bad.write_text(dumps_certificate(cert))
    proc = run_cli(["verify", str(bad)])
    assert proc.returncode == 1
    verdict = last_json(proc)
    assert not verdict["ok"]
    checks = verdict["code_checks"]
    assert checks["dim_ok"] and checks["distance_ok"]
    assert not checks["space_ok"] and not checks["mtr_ok"]


@pytest.mark.parametrize("facts", [{"q": 99, "n": 17, "m": 1}, {"q": 9},
                                   {"n": 4}, {"m": 2}])
def test_verify_rejects_wrong_code_facts(tmp_path, facts):
    # q, n and m are claims about the code: they must match the certificate's
    # field and the target's shape, or verify fails
    cert = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    assert reverify(cert, rmcode.DEFAULT_SCAN_GUARD)["code_checks"]["facts_ok"]
    cert["code"].update(facts)
    bad = tmp_path / "facts.json"
    bad.write_text(dumps_certificate(cert))
    proc = run_cli(["verify", str(bad)])
    assert proc.returncode == 1
    verdict = last_json(proc)
    assert not verdict["ok"] and not verdict["code_checks"]["facts_ok"]
    checks = verdict["code_checks"]
    assert checks["space_ok"] and checks["dim_ok"] and checks["distance_ok"]


def test_fixtures_match_their_generator():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "make_fixtures.py"), "--check"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_certificate_round_trip_is_byte_stable(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["construct", "atkinson", "--p", "3", "--n", "2",
             "--out", str(out)])
    first = out.read_text()
    cert = load_certificate(str(out))
    assert dumps_certificate(cert) == first
    # verdict stability under re-verification
    assert reverify(cert, guard=1 << 20)["ok"]
    assert reverify(load_certificate(str(out)), guard=1 << 20)["ok"]


def test_oracle_subcommand(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": 3, "deg": 1, "modulus": []},
        "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}],
    }))
    out = tmp_path / "wit.json"
    proc = run_cli(["oracle", str(space), "--out", str(out)])
    assert proc.returncode == 0
    assert last_json(proc)["tensor_rank"] == 2
    assert run_cli(["verify", str(out)]).returncode == 0


def test_guard_env_variable(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": 3, "deg": 1, "modulus": []},
        "basis": [{"n": 3, "m": 3,
                   "entries": [[1 if i == j else 0 for j in range(3)]
                               for i in range(3)]}],
    }))
    env = dict(os.environ, PERFBASE_GUARD="5")
    proc = run_cli(["oracle", str(space)], env=env)
    assert proc.returncode == 3
    assert last_json(proc)["kind"] == "guard"


def test_guard_flag_zero_is_not_ignored(tmp_path, capsys, monkeypatch):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": 3, "deg": 1, "modulus": []},
        "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}],
    }))
    monkeypatch.delenv("PERFBASE_GUARD", raising=False)
    assert main(["oracle", str(space), "--guard", "0"]) == 3
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["kind"] == "guard"
    # --guard wins over PERFBASE_GUARD, in both directions
    monkeypatch.setenv("PERFBASE_GUARD", "0")
    assert main(["oracle", str(space), "--guard", "1000"]) == 0
    monkeypatch.setenv("PERFBASE_GUARD", "1000")
    assert main(["oracle", str(space), "--guard", "0"]) == 3
    cert = os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json")
    assert main(["verify", cert, "--guard", "0"]) == 3
    assert main(["verify", cert]) == 0
    capsys.readouterr()


def test_main_entry_in_process(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = main(["construct", "build-mtr", "--p", "7", "--n", "3", "--m", "3",
               "--k", "2", "--d", "3", "--out", str(out)])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["base_size"] == 4
    rc = main(["verify", str(out)])
    assert rc == 0


def test_construct_build_mtr_verifies_each_base_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(cand):
        calls.append(cand)
        return tensor3.verify_base(cand)

    for module in (construct, rmcode, cli):
        monkeypatch.setattr(module, "verify_base", counting)
    out = tmp_path / "c.json"
    assert main(["construct", "build-mtr", "--p", "7", "--n", "4", "--m", "4",
                 "--k", "2", "--d", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    # the shortened witness only: the power base it came from is not checked
    assert len(calls) == 1
    # the bytes written while the CLI verified the witness a third time
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "ed3a7d39074e6280b29261d7a683bee5299c520664e2f4bc94cc3db5fce35b8a"


@pytest.mark.parametrize("kind", ["build-mtr", "gabidulin-dual-mtr"])
def test_code_constructions_refuse_extension_degrees(tmp_path, capsys, kind):
    # they build over F_p; an F_25 label would make `verify` reject the code
    out = tmp_path / "c.json"
    assert main(["construct", kind, "--p", "5", "--deg", "2", "--n", "2",
                 "--m", "2", "--k", "2", "--d", "2", "--out", str(out)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and not out.exists()


@pytest.mark.parametrize("args,field", [
    (["dual-powers", "--p", "5", "--deg", "2", "--s", "2",
      "--bottom", "1,7,9"], (5, 2)),
    (["dual-powers-rect", "--p", "5", "--n", "2", "--s", "2",
      "--bottom", "1,2,3,4"], (5, 1)),
    (["inverse-family", "--p", "7", "--bottom", "3,6,0,0,0"], (7, 1)),
    (["rect-small-n", "--p", "7", "--n", "2", "--bottom", "3,6,0,0,0"], (7, 1)),
    (["singular", "--p", "5", "--deg", "2", "--s", "2",
      "--bottom", "0,1,2,0"], (5, 2)),
    (["atkinson", "--p", "5", "--n", "3"], (5, 1)),
    (["gabidulin-dual-mtr", "--p", "3", "--m", "3", "--n", "3"], (3, 1)),
    (["build-mtr", "--p", "5", "--n", "2", "--m", "2", "--k", "2",
      "--d", "2"], (5, 1)),
], ids=lambda v: v[0] if isinstance(v, list) else "F%d^%d" % v)
def test_certificate_field_is_the_field_of_its_matrices(tmp_path, capsys,
                                                        monkeypatch, args, field):
    built = []
    make = cli.certificate_from_result

    def recording(result, *rest):
        built.append(result.candidate.target.field)
        return make(result, *rest)

    monkeypatch.setattr(cli, "certificate_from_result", recording)
    out = tmp_path / "c.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    cert = load_certificate(out)
    assert cert["field"] == cli.field_to_json(built[0])
    assert (built[0].p, built[0].deg) == field
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_verify_large_prime_is_fast_and_p_beyond_2_64_is_input_error(tmp_path, capsys):
    row = {"n": 1, "m": 2, "entries": [[1, 5]]}
    path = tmp_path / "big.json"
    for p, code in ((10 ** 18 + 9, 0), ((1 << 64) + 13, 2)):
        path.write_text(json.dumps({
            "schema_version": "1", "field": {"p": p, "deg": 1, "modulus": []},
            "construction": {"name": "hand", "params": {}},
            "target_basis": [row], "base": [row], "auxiliary": {}}))
        t0 = time.perf_counter()
        assert main(["verify", str(path)]) == code
        assert time.perf_counter() - t0 < 0.5
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line["ok"] == (code == 0)


@pytest.mark.parametrize("p", [10 ** 9 + 7, (1 << 61) - 1])
def test_verify_one_dimensional_code_certificate_over_a_large_prime_is_fast(
        tmp_path, capsys, p):
    one = {"n": 1, "m": 1, "entries": [[1]]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps({
        "schema_version": "1", "field": {"p": p, "deg": 1, "modulus": []},
        "construction": {"name": "hand", "params": {}},
        "target_basis": [one], "base": [one], "auxiliary": {},
        "code": {"q": p, "n": 1, "m": 1, "k": 1, "d": 1, "mtr": True,
                 "space_basis": [one]}}))
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - t0 < 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["ok"] and line["code_checks"]["distance"] == 1


def test_verify_unreadable_and_malformed_certificates_exit_2_as_input(
        tmp_path, capsys):
    ragged = {"n": 2, "m": 2, "entries": [[1, 0], [1]]}
    path = tmp_path / "bad.json"
    for text, error in (
            ("{not json", "unreadable certificate"),
            (json.dumps({"schema_version": "1",
                         "field": {"p": 5, "deg": 1, "modulus": []},
                         "target_basis": [ragged], "base": [ragged]}),
             "malformed certificate")):
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line["kind"] == "input" and line["error"].startswith(error)


@pytest.mark.parametrize("cert", [
    [1, 2],
    {"schema_version": "1", "field": [3], "target_basis": [], "base": []},
])
def test_verify_certificate_of_wrong_json_types_exits_2(tmp_path, capsys, cert):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 2
    assert not json.loads(capsys.readouterr().out.strip().splitlines()[-1])["ok"]


def test_field_from_json_refuses_extensions_beyond_2_16_before_building():
    assert field_from_json({"p": 251, "deg": 2}).q == 251 ** 2
    assert field_from_json({"p": 10 ** 18 + 9}).q == 10 ** 18 + 9
    # the degree is checked before p ** deg is formed
    for p, deg in ((257, 2), (3, 11), (2, 17), (2, 10 ** 9)):
        with pytest.raises(ParametersOutOfRange):
            field_from_json({"p": p, "deg": deg})


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_huge_extension_degree_exits_2_at_once(tmp_path, capsys, command):
    field = {"p": 2, "deg": 30, "modulus": []}
    row = {"n": 1, "m": 2, "entries": [[1, 5]]}
    obj = {"field": field, "basis": [row]}
    if command == "verify":
        obj = {"schema_version": "1", "field": field,
               "construction": {"name": "hand", "params": {}},
               "target_basis": [row], "base": [row], "auxiliary": {}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    assert main([command, str(path)]) == 2
    assert time.perf_counter() - t0 < 0.5
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and not line["ok"]


def test_oracle_witness_failing_verification_exits_1(tmp_path, capsys, monkeypatch):
    def short_witness(space, guard):
        return 1, BaseCandidate((space.basis[0],), space)
    monkeypatch.setattr(cli, "exhaustive_trk", short_witness)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": 3},
        "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}]}))
    assert main(["oracle", str(space)]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "internal" and not line["ok"]


def test_verify_guard_exit_reports_distance_progress():
    cert = os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json")
    proc = run_cli(["verify", cert, "--guard", "1"])
    assert proc.returncode == 3
    line = last_json(proc)
    assert line["kind"] == "guard"
    k = load_certificate(cert)["code"]["k"]
    assert line["progress"] == {"phase": "distance",
                                "needed": (3 ** k - 1) // 2, "guard": 1}


def test_size_check_boundary():
    cap = cli.MAX_INPUT_ENTRIES
    cli._check_size([{"n": 1, "m": cap - 4}], [{"n": 2, "m": 2}])
    with pytest.raises(ParametersOutOfRange):
        cli._check_size([{"n": 1, "m": cap - 4}], [{"n": 1, "m": 5}])
    with pytest.raises(ValueError):
        cli._check_size([{"n": -1, "m": cap}, {"n": 1, "m": cap}])


def test_million_member_certificate_is_refused_at_once():
    row = {"n": 1, "m": 2, "entries": [[1, 5]]}
    cert = {"schema_version": "1", "field": {"p": 5, "deg": 1, "modulus": []},
            "construction": {"name": "hand", "params": {}},
            "target_basis": [row], "base": [row] * 10 ** 6, "auxiliary": {}}
    t0 = time.perf_counter()
    with pytest.raises(ParametersOutOfRange):
        reverify(cert, 1 << 24)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_declared_size_beyond_the_cap_exits_2_before_building(tmp_path, capsys,
                                                               command):
    # the entries are not even there: the declared shape alone is refused
    field = {"p": 5, "deg": 1, "modulus": []}
    huge = {"n": 1024, "m": 1024, "entries": []}
    obj = {"field": field, "basis": [huge]}
    if command == "verify":
        obj = {"schema_version": "1", "field": field,
               "construction": {"name": "hand", "params": {}},
               "target_basis": [huge], "base": [], "auxiliary": {}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "entries" in line["error"]
