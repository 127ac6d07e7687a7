import argparse
import collections
import copy
import dataclasses
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from perfbase import cli, construct, rmcode, tensor3
from perfbase.cli import (
    dumps_certificate,
    field_from_json,
    field_to_json,
    load_certificate,
    main,
    matrix_from_json,
    matrix_to_json,
    reverify,
)
from perfbase.errors import (
    DegreeMismatch,
    InternalVerificationError,
    ParametersOutOfRange,
    PerfbaseError,
)
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import field_make
from perfbase.tensor3 import BaseCandidate
from test_echelon import reference_rref
from test_oracle import KRUSKAL_GAP_F3, _all_two_dim_spaces, _pencil, kruskal_start

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


FIXTURES = sorted(name for name in os.listdir(FIXDIR) if name.endswith(".cert.json"))
WITHOUT_NUMPY = ('import sys; sys.modules["numpy"] = None; from perfbase.cli import main; '
                 'sys.exit(main(sys.argv[1:]))')


@pytest.mark.parametrize("name", FIXTURES)
def test_verify_without_numpy_matches_a_normal_run(tmp_path, name):
    # a fixture and a copy with one base entry changed verify in a process
    # that cannot import numpy exactly as in a normal one, so neither loads it
    cert = load_certificate(os.path.join(FIXDIR, name))
    entries = cert["base"][-1]["entries"]
    entries[0][0] = (entries[0][0] + 1) % cert["field"]["p"]
    tampered = tmp_path / name
    tampered.write_text(dumps_certificate(cert))
    for path, code in ((os.path.join(FIXDIR, name), 0), (str(tampered), 1)):
        normal = run_cli(["verify", path])
        blocked = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, "verify", path],
                                 capture_output=True, text=True)
        assert (blocked.returncode, blocked.stdout) == (normal.returncode, normal.stdout)
        assert normal.returncode == code and blocked.stderr == "", blocked.stderr


@pytest.mark.parametrize("given,kept", [(None, "1"), ("3", "3")])
def test_main_sets_one_openblas_thread_unless_the_caller_chose(capsys, monkeypatch, given,
                                                               kept):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", given or "")  # restored after the test
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["verify", os.path.join(FIXDIR, FIXTURES[0])]) == 0
    capsys.readouterr()
    assert os.environ["OPENBLAS_NUM_THREADS"] == kept


MAKE_CAP_CERTIFICATE = """
import random, sys
from perfbase.cli import write_certificate
p, n, m = 5, 16, 32
rng = random.Random("input-cap")
def member(rows):
    return {"n": n, "m": m, "entries": rows}
target = [member([[rng.randrange(p) for _ in range(m)] for _ in range(n)]) for _ in range(n * m)]
base = []
for _ in range(n * m):
    u, v = [rng.randrange(1, p) for _ in range(n)], [rng.randrange(1, p) for _ in range(m)]
    base.append(member([[a * b % p for b in v] for a in u]))
write_certificate({"schema_version": "1", "field": {"p": p, "deg": 1, "modulus": []},
                   "construction": {"name": "cap", "params": {}},
                   "target_basis": target, "base": base}, sys.argv[1])
"""


@pytest.mark.slow
def test_verify_at_the_input_cap_loads_numpy_within_its_documented_time(tmp_path):
    # the F_5 16x32 certificate at the cap (512 dense target members, 512
    # u v^t base members) has 512-wide rows: far more list work than the
    # numpy import, so verify loads numpy and keeps README's 0.35-0.50 s
    path = tmp_path / "cap.json"
    subprocess.run([sys.executable, "-c", MAKE_CAP_CERTIFICATE, str(path)], check=True)
    code = ("import sys; from perfbase.cli import main; rc = main(sys.argv[1:]); "
            "print('numpy' in sys.modules); sys.exit(rc)")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, "verify", str(path)],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    verdict, loaded = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and json.loads(verdict)["ok"] and loaded == "True"
    assert elapsed < 1.5, elapsed


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
    rmcode._mtr_core.cache_clear()
    for seed in ("cold", "warm"):
        calls.clear()
        out = tmp_path / f"{seed}.json"
        assert main(["construct", "build-mtr", "--p", "7", "--n", "4", "--m", "4",
                     "--k", "2", "--d", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        # the shortened witness only: the power base it came from is not checked
        assert len(calls) == 1
        # the bytes written while the CLI verified the witness a third time,
        # the same whether the seed was built for this call or shared
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "ed3a7d39074e6280b29261d7a683bee5299c520664e2f4bc94cc3db5fce35b8a"


@pytest.mark.parametrize("args", [
    ["build-mtr", "--n", "2", "--m", "2", "--k", "2", "--d", "2"],
    ["gabidulin-dual-mtr", "--n", "2", "--m", "2"]], ids=lambda a: a[0])
def test_code_constructions_refuse_extension_degrees(tmp_path, capsys, args):
    # they build over F_p; an F_25 label would make `verify` reject the code
    out = tmp_path / "c.json"
    assert main(["construct", *args, "--p", "5", "--deg", "2", "--out", str(out)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "--deg" in line["error"] and not out.exists()


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
    # a member group that is not a list: `_check_size` counts it before the walk
    *({"schema_version": "1", "field": {"p": 5}, "target_basis": [], "base": base}
      for base in (5, None, "x", {"n": 1, "m": 1, "entries": [[1]]})),
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


@pytest.mark.parametrize("kind", [
    ["dual-powers", "--p", "5", "--m", "4", "--s", "3", "--bottom", "1,0,0,0"],
    ["build-mtr", "--p", "7", "--n", "4", "--m", "4", "--k", "2", "--d", "3"]],
    ids=["dual-powers", "build-mtr"])
def test_construct_failing_self_verification_exits_1(tmp_path, capsys, monkeypatch,
                                                     kind):
    # build-mtr reaches `_finish` through rmcode
    def failing(cand):
        return dataclasses.replace(tensor3.verify_base(cand), contains_target=False)
    monkeypatch.setattr(construct, "verify_base", failing)
    out = tmp_path / "c.json"
    assert main(["construct", *kind, "--out", str(out)]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "internal" and not line["ok"]
    assert not out.exists()


@pytest.mark.parametrize("field,n,m", [({"p": 3}, 2, 2), ({"p": 2, "deg": 2}, 1, 3)],
                         ids=["F3", "F4"])
def test_oracle_refuses_a_zero_space_before_the_search(tmp_path, capsys, monkeypatch,
                                                       field, n, m):
    # its certificate would have an empty target, which `verify` refuses
    def write(first):
        entries = [[first] + [0] * (m - 1)] + [[0] * m] * (n - 1)
        space.write_text(json.dumps({"field": field, "basis": [
            {"n": n, "m": m, "entries": entries}] * 2}))
    space, out = tmp_path / "space.json", tmp_path / "out.json"
    write(0)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "exhaustive_trk", None)
        assert main(["oracle", str(space), "--out", str(out)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "zero matrix" in line["error"]
    assert not out.exists()
    write(1)  # a nonzero space of the same shape: oracle --out, then verify
    assert main(["oracle", str(space), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["ok"]


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
    # cap objects of 1 x 1 pass; one more is refused by the count, before the walk
    one = {"n": 1, "m": 1}
    cli._check_size([one] * (cap - 1), [one])
    with pytest.raises(ParametersOutOfRange):
        cli._check_size([{"n": -1}] + [one] * (cap - 1), [one])


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


def test_construct_refuses_an_oversized_atkinson_before_building(tmp_path, capsys,
                                                                 monkeypatch):
    def refuse(*args):
        raise AssertionError("built")

    with monkeypatch.context() as patch:
        patch.setattr(construct, "atkinson_base", refuse)
        out = tmp_path / "big.json"
        t0 = time.perf_counter()
        assert main(["construct", "atkinson", "--p", "3", "--n", "60",
                     "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 0.5
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line == {"ok": False, "kind": "input", "error":
                        f"input declares more than {cli.MAX_INPUT_ENTRIES} matrix entries"}
        assert not out.exists()
    # n = 22 is the largest under the cap: 2 (22^2 + 20) 22 * 23 entries
    out = tmp_path / "n22.json"
    assert main(["construct", "atkinson", "--p", "3", "--n", "22",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    cert = load_certificate(str(out))
    entries = sum(B["n"] * B["m"] for B in cert["target_basis"] + cert["base"])
    assert entries == 2 * (22 ** 2 + 20) * 22 * 23 <= cli.MAX_INPUT_ENTRIES
    assert 2 * (23 ** 2 + 21) * 23 * 24 > cli.MAX_INPUT_ENTRIES


@pytest.mark.parametrize("kind,constructor,flags,over,under,entries", [
    ("dual-powers", "base_dual_powers", ["--s", "1"], [1] * 23, [1] * 22,
     2 * (22 ** 2 - 1) * 22 ** 2),
    ("dual-powers-rect", "base_dual_powers_rect", ["--n", "2", "--s", "1"], [1] * 257,
     [1] * 256, 2 * (2 * 256 - 1) * 2 * 256),
    # a singular companion: least nonzero index m, the glued trailing pair
    ("singular", "base_singular", ["--s", "2"], [0] * 22 + [1], [0] * 21 + [1],
     2 * (22 ** 2 - 2) * 22 ** 2),
])
def test_construct_refuses_an_oversized_power_kind_before_building(
        tmp_path, capsys, monkeypatch, kind, constructor, flags, over, under, entries):
    def refuse(*args):
        raise AssertionError("built")

    def construct_cli(bottom, out):
        return main(["construct", kind, *flags, "--p", "13", "--bottom",
                     ",".join(map(str, bottom)), "--out", str(out)])

    with monkeypatch.context() as patch:
        patch.setattr(construct, constructor, refuse)
        out = tmp_path / "big.json"
        t0 = time.perf_counter()
        assert construct_cli(over, out) == 2
        assert time.perf_counter() - t0 < 0.5
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line == {"ok": False, "kind": "input", "error":
                        f"input declares more than {cli.MAX_INPUT_ENTRIES} matrix entries"}
        assert not out.exists()
    # the largest bottom row under the cap
    out = tmp_path / "largest.json"
    assert construct_cli(under, out) == 0
    capsys.readouterr()
    cert = load_certificate(str(out))
    assert sum(B["n"] * B["m"] for B in cert["target_basis"] + cert["base"]) == entries
    assert entries <= cli.MAX_INPUT_ENTRIES


def _ones(m):
    return ",".join(["1"] * m)


@pytest.mark.parametrize("kind,constructor,over,under,entries", [
    ("inverse-family", "construct.base_inverse_family",
     ["--p", "251", "--bottom", _ones(200)], None, None),
    # the least m over each inexact bound: (m + 2) m^2, and (m + n) nm at n = 3
    ("inverse-family", "construct.base_inverse_family",
     ["--p", "13", "--bottom", _ones(80)], None, None),
    ("rect-small-n", "construct.base_rect_small_n",
     ["--p", "13", "--n", "3", "--bottom", _ones(417)], None, None),
    # the glued quadratic case of `singular`: least nonzero index m - 1 and s = 2
    ("singular", "construct.base_singular",
     ["--p", "13", "--s", "2", "--bottom", "0," * 21 + "1,0"], None, None),
    ("build-mtr", "rmcode._build_mtr",
     ["--p", "13", "--m", "4", "--n", "200000", "--k", "4", "--d", "4"], None, None),
    # (3k + d - 1) nm entries: n = 8738 is the largest under the cap
    ("build-mtr", "rmcode._build_mtr",
     ["--p", "13", "--m", "4", "--n", "8739", "--k", "4", "--d", "4"],
     ["--p", "13", "--m", "4", "--n", "8738", "--k", "4", "--d", "4"], 15 * 8738 * 4),
])
def test_construct_refuses_a_kind_over_its_entry_bound_before_building(
        tmp_path, capsys, monkeypatch, kind, constructor, over, under, entries):
    def refuse(*args):
        raise AssertionError("built")

    module, name = constructor.split(".")
    with monkeypatch.context() as patch:
        patch.setattr({"construct": construct, "rmcode": rmcode}[module], name, refuse)
        out = tmp_path / "big.json"
        t0 = time.perf_counter()
        assert main(["construct", kind, *over, "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 0.5
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line == {"ok": False, "kind": "input", "error":
                        f"input declares more than {cli.MAX_INPUT_ENTRIES} matrix entries"}
        assert not out.exists()
    if under is not None:  # an exact bound: the largest request under the cap builds
        out = tmp_path / "largest.json"
        assert main(["construct", kind, *under, "--out", str(out)]) == 0
        capsys.readouterr()
        cert = load_certificate(str(out))
        members = cert["target_basis"] + cert["base"] + cert["code"]["space_basis"]
        assert sum(B["n"] * B["m"] for B in members) == entries <= cli.MAX_INPUT_ENTRIES


def _small_requests(F, m):
    """(kind, args) of every kind over F with matrix size m: each bottom row of
    length m, and s, n, k, d in small ranges that hold both valid and refused values."""
    flags = dict.fromkeys(cli._FLAGS, None)
    small = range(0, m + 2)
    sizes = sorted({1, 2, m, m + 1})
    for bottom in itertools.product(range(F.q), repeat=m):
        at = dict(flags, bottom=",".join(map(str, bottom)))
        for s in small:
            yield from [("dual-powers", dict(at, s=s)), ("singular", dict(at, s=s))]
            yield from (("dual-powers-rect", dict(at, s=s, n=n)) for n in sizes)
        yield from [("inverse-family", at), ("inverse-family", dict(at, powers="2"))]
        yield from (("rect-small-n", dict(at, n=n)) for n in sizes)
    yield from (("atkinson", dict(flags, n=n)) for n in sizes)
    if F.deg == 1:
        yield from (("gabidulin-dual-mtr", dict(flags, m=m, n=n)) for n in sizes)
        yield from (("build-mtr", dict(flags, m=m, n=n, k=k, d=d))
                    for n, k, d in itertools.product(sizes, small, small))


def test_entry_bounds_are_lower_bounds_and_exact_where_claimed():
    """On every small request, each kind's entry bound is at most the entries of
    the certificate it builds, and equal for the kinds whose size the flags fix.
    No small request is over the cap by its bound, so wherever the constructor
    refuses the flags, its own error still comes first."""
    exact = {"dual-powers", "dual-powers-rect", "singular", "atkinson", "build-mtr"}
    built, refused, tight = (collections.Counter() for _ in range(3))
    for (p, deg), m in itertools.product(((2, 1), (3, 1), (5, 1), (2, 2)), (2, 3, 4)):
        F = field_make(p, deg)
        if F.q ** m > 100:
            continue
        for kind, flags in _small_requests(F, m):
            args = argparse.Namespace(p=p, deg=deg, **flags)
            bound = cli._KINDS[kind].entries(m, args)
            assert bound <= cli.MAX_INPUT_ENTRIES, (kind, F.q, flags)
            try:
                code, result = cli._KINDS[kind].build(F, args)
            except (PerfbaseError, ValueError) as exc:
                assert not isinstance(exc, InternalVerificationError), (kind, F.q, flags)
                refused[kind] += 1
                continue
            cert = cli.certificate_from_result(result)
            entries = sum(B["n"] * B["m"] for B in cert["target_basis"] + cert["base"])
            if code is not None:
                entries += sum(B.n * B.m for B in code.space.basis)
            assert bound <= entries, (kind, F.q, flags)
            assert bound == entries or kind not in exact, (kind, F.q, flags)
            built[kind] += 1
            tight[kind] += bound == entries
    assert set(built) == set(refused) == set(cli._KINDS)
    assert tight["inverse-family"] > 0  # the inexact bound is attained


def test_gabidulin_dual_certificates_are_far_below_the_cap():
    """`gabidulin-dual-mtr` has no entry bound: it needs 2 <= n <= m <= p, and
    `field_make` builds F_(p^m) only up to 2^16 elements, so its certificate of
    3m(n - 1) + 1 members of n x m entries is small for every admissible request."""
    def entries(m, n):
        return (3 * m * (n - 1) + 1) * n * m

    fixture = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    members = fixture["target_basis"] + fixture["base"] + fixture["code"]["space_basis"]
    assert sum(B["n"] * B["m"] for B in members) == entries(3, 3)
    primes = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    admissible = [(m, n) for p in primes for m in range(2, p + 1) if p ** m <= 1 << 16
                  for n in range(2, m + 1)]
    assert max(m for m, _ in admissible) == 5  # at p = 5 and p = 7
    assert max(entries(m, n) for m, n in admissible) == entries(5, 5) == 1525
    assert entries(5, 5) < cli.MAX_INPUT_ENTRIES
    with pytest.raises(ParametersOutOfRange):
        field_make(7, 6)  # 7^6 > 2^16: no m = 6 for any p >= 6


def _oracle_certificate(tmp_path, capsys, p, mats):
    """Run `perfbase oracle` on span(mats) over F_p; returns the certificate."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": p},
        "basis": [{"n": len(A), "m": len(A[0]), "entries": A} for A in mats]}))
    out = tmp_path / "oracle.cert.json"
    assert main(["oracle", str(space), "--out", str(out)]) == 0
    capsys.readouterr()
    return load_certificate(str(out))


def _verify(tmp_path, capsys, cert, *extra):
    path = tmp_path / "edited.cert.json"
    path.write_text(dumps_certificate(cert))
    rc = main(["verify", str(path), *extra])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_verify_refuses_a_false_tensor_rank(tmp_path, capsys):
    cert = _oracle_certificate(tmp_path, capsys, 3,
                               [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    assert cert["tensor_rank"] == 2
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 0 and line["rank_checks"] == {
        "upper_ok": True, "lower": 2, "lower_by": "dimension"}
    for claim in (1, 7):
        rc, line = _verify(tmp_path, capsys, dict(cert, tensor_rank=claim))
        assert rc == 1 and not line["ok"]
        assert line["rank_checks"] == {"upper_ok": False, "lower": None,
                                       "lower_by": None}
    for claim in ("2", 2.0, True):
        rc, line = _verify(tmp_path, capsys, dict(cert, tensor_rank=claim))
        assert rc == 2 and line["kind"] == "input"


def test_verify_refuses_unknown_certificate_keys(tmp_path, capsys):
    cert = _oracle_certificate(tmp_path, capsys, 3, [[[1, 0], [0, 1]]])
    rc, line = _verify(tmp_path, capsys, dict(cert, bogus_claim=True))
    assert rc == 2 and line["kind"] == "input" and "bogus_claim" in line["error"]
    assert set(cert) | {"code"} == cli.CERTIFICATE_KEYS


def test_verify_proves_tensor_rank_by_kruskal(tmp_path, capsys):
    # x^2 + 1 has no root in F_3: every nonzero member has rank 2, so d = 2
    cert = _oracle_certificate(tmp_path, capsys, 3,
                               [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 0 and line["rank_checks"] == {
        "upper_ok": True, "lower": 3, "lower_by": "kruskal"}


EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_verify_proves_tensor_rank_by_the_oracle(tmp_path, capsys):
    # a 3-dim space over F_3: Kruskal's and Griesmer's bound 4 > n, which the
    # diagonal bound cannot raise, and tensor rank 5
    cert = _oracle_certificate(tmp_path, capsys, 3, KRUSKAL_GAP_F3)
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 0 and line["rank_checks"] == {
        "upper_ok": True, "lower": 5, "lower_by": "oracle"}
    rc, line = _verify(tmp_path, capsys, cert, "--guard", "0")
    assert rc == 3 and line["kind"] == "guard"
    # a guard that covers the distance scan (13 words) but not the oracle
    space = MatrixSpace.from_matrices([FqMatrix(field_make(3), A) for A in KRUSKAL_GAP_F3])
    tests = sum(used for _, _, used in tensor3._rank_levels(space, tensor3.DEFAULT_GUARD))
    rc, line = _verify(tmp_path, capsys, cert, "--guard", str(tests - 1))
    assert rc == 3 and line["progress"] == {"phase": "oracle", "R": 5,
                                            "tests_used": tests - 1}
    rc, line = _verify(tmp_path, capsys, cert, "--guard", str(tests))
    assert rc == 0


def test_verify_computes_the_lower_bound_once_when_the_oracle_reruns(
        tmp_path, capsys, monkeypatch):
    # the oracle starts at the bound `_rank_checks` already has, so the
    # distance scan and the diagonal test run once per verify
    cert = _oracle_certificate(tmp_path, capsys, 3, KRUSKAL_GAP_F3)
    calls, bound = [], tensor3.rank_lower_bound

    def counted(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(cli, "rank_lower_bound", counted)
    monkeypatch.setattr(tensor3, "rank_lower_bound", counted)
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 0 and line["rank_checks"] == {
        "upper_ok": True, "lower": 5, "lower_by": "oracle"}
    assert len(calls) == 1


def test_verify_proves_tensor_rank_by_the_griesmer_bound(tmp_path, capsys, monkeypatch):
    # <I, C(x^3 + x + 1)> over F_2: every nonzero member is invertible, so
    # d = 3 and Griesmer's 3 + ceil(3/2) = 5 is the tensor rank, where
    # Kruskal's bound is 4
    cert = _oracle_certificate(tmp_path, capsys, 2,
                               [EYE3, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]])
    assert cert["tensor_rank"] == 5

    def no_oracle(*args):
        raise AssertionError("the oracle re-ran")

    monkeypatch.setattr(cli, "exhaustive_trk", no_oracle)
    verdict = reverify(cert, rmcode.DEFAULT_SCAN_GUARD)
    assert verdict["ok"] and verdict["rank_checks"] == {
        "upper_ok": True, "lower": 5, "lower_by": "griesmer"}
    rc, line = _verify(tmp_path, capsys, dict(cert, tensor_rank=4))
    assert rc == 1 and not line["ok"] and line["rank_checks"]["lower"] is None


def test_verify_proves_tensor_rank_by_the_diagonal_bound(tmp_path, capsys, monkeypatch):
    # <I, C(x^3)> over F_3: Kruskal bound 3, tensor rank 4.  C is nilpotent,
    # not diagonalizable, so the diagonal bound proves 4 without the oracle
    cert = _oracle_certificate(tmp_path, capsys, 3,
                               [EYE3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    assert cert["tensor_rank"] == 4

    def no_oracle(*args):
        raise AssertionError("the oracle re-ran")

    monkeypatch.setattr(cli, "exhaustive_trk", no_oracle)
    verdict = reverify(cert, rmcode.DEFAULT_SCAN_GUARD)
    assert verdict["ok"] and verdict["rank_checks"] == {
        "upper_ok": True, "lower": 4, "lower_by": "diagonal"}
    rc, line = _verify(tmp_path, capsys, dict(cert, tensor_rank=3))
    assert rc == 1 and not line["ok"] and line["rank_checks"]["lower"] is None


def test_rank_checks_keep_their_dimension_and_kruskal_proofs():
    # on spaces of every kind of proof: a rank the dimension or Kruskal's
    # bound reached before the diagonal and Griesmer bounds existed is
    # proved by it still, and those two bounds take only ranks the oracle
    # proved
    F2, F3 = field_make(2), field_make(3)
    spaces = (_all_two_dim_spaces(F2) + _all_two_dim_spaces(F3)
              + [_pencil(F, b) for F in (F2, F3)
                 for b in itertools.product(range(F.q), repeat=3)]
              + [MatrixSpace.from_matrices([FqMatrix(F3, A) for A in KRUSKAL_GAP_F3])])
    kinds = set()
    for V in spaces:
        R = tensor3.exhaustive_trk(V)[0]
        before = ("dimension" if V.dim >= R else
                  "kruskal" if kruskal_start(V) >= R else "oracle")
        checks = cli._rank_checks(V, R, True, rmcode.DEFAULT_SCAN_GUARD)
        assert checks["lower"] == R
        assert checks["lower_by"] == before or (before, checks["lower_by"]) in {
            ("oracle", "diagonal"), ("oracle", "griesmer")}, V
        kinds.add((before, checks["lower_by"]))
    assert kinds == {("dimension", "dimension"), ("kruskal", "kruskal"),
                     ("oracle", "diagonal"), ("oracle", "griesmer"), ("oracle", "oracle")}


# --- canonical input --------------------------------------------------------------


def _entry(cert, i, j, value_of):
    entries = cert["base"][0]["entries"]
    entries[i][j] = value_of(entries[i][j])


# each edit used to verify with exit 0: the reader reduced, truncated or
# parsed the value instead of refusing it
CANONICAL_EDITS = {
    "entry-plus-5": lambda c: _entry(c, 1, 0, lambda x: x + 5),
    "entry-minus-5": lambda c: _entry(c, 1, 0, lambda x: x - 5),
    "entry-plus-half": lambda c: _entry(c, 1, 0, lambda x: x + 0.5),
    "entry-as-string": lambda c: _entry(c, 1, 0, str),
    "one-as-true": lambda c: _entry(c, 0, 0, lambda x: True),
    "n-as-string": lambda c: c["base"][0].update(n="4"),
    "n-as-float": lambda c: c["base"][0].update(n=4.9),
    "p-as-string": lambda c: c["field"].update(p="5"),
    "deg-as-float": lambda c: c["field"].update(deg=1.5),
}


@pytest.mark.parametrize("edit", sorted(CANONICAL_EDITS))
def test_verify_refuses_non_canonical_json(tmp_path, capsys, edit):
    cert = load_certificate(os.path.join(FIXDIR, "dual_powers_f5_m4_s3.cert.json"))
    assert cert["base"][0]["entries"][1][0] == 4 and cert["base"][0]["entries"][0][0] == 1
    CANONICAL_EDITS[edit](cert)
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 2 and line["kind"] == "input" and not line["ok"]


@pytest.mark.parametrize("entry", [True, False, 1.0, 0.5, -1, -5, 5, 6, 1 << 70, "1", None])
def test_matrix_from_json_refuses_an_entry_outside_the_encodings(entry):
    # a bool beside the int it equals, a float, a negative, one at or past
    # q: the same error, and no entry is reduced or coerced
    F5 = field_make(5)
    for at in ((0, 0), (1, 1), (1, 2)):
        rows = [[1, 0, 4], [2, 1, 3]]
        rows[at[0]][at[1]] = entry
        with pytest.raises(ValueError) as info:
            matrix_from_json(F5, {"n": 2, "m": 3, "entries": rows})
        assert str(info.value) == "matrix entries must be JSON integers in [0, 5)"


def test_matrix_from_json_keeps_the_encodings_as_written():
    F4 = field_make(2, 2)
    rows = [[0, 1, 2, 3], [3, 2, 1, 0]]
    M = matrix_from_json(F4, {"n": 2, "m": 4, "entries": rows})
    assert M == FqMatrix(F4, rows) and M.rows == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert all(type(row) is tuple for row in M.rows) and M.shape == (2, 4)


@pytest.mark.parametrize("key,value", [("k", "6"), ("d", 2.0), ("q", True),
                                       ("n", "3"), ("mtr", 1)])
def test_verify_refuses_non_canonical_code_facts(tmp_path, capsys, key, value):
    cert = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    cert["code"][key] = value
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 2 and line["kind"] == "input"


@pytest.mark.parametrize("modulus,code", [([1, 1, 1], 0), ([3, 1, 1], 2),
                                          ([1, 1.0, 1], 2), ([1, -1, 1], 2),
                                          (False, 2), (0, 2), ({}, 2), (None, 2),
                                          ([], 2)])
def test_verify_refuses_modulus_coefficients_outside_f_p(tmp_path, capsys,
                                                          modulus, code):
    # a present modulus is read as written: a value that is not a list, or
    # the empty list on F_4, is refused and never means the default modulus
    one = {"n": 1, "m": 1, "entries": [[1]]}
    cert = {"schema_version": "1", "field": {"p": 2, "deg": 2, "modulus": modulus},
            "construction": {"name": "hand", "params": {}},
            "target_basis": [one], "base": [one], "auxiliary": {}}
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == code and line["ok"] == (code == 0)
    if code:
        assert line["kind"] == "input"


def test_a_prime_fields_empty_modulus_names_the_field():
    # `field_to_json` writes [] for F_p, and it reads back as the one F_p
    assert field_to_json(field_make(3))["modulus"] == []
    assert field_from_json({"p": 3, "deg": 1, "modulus": []}) is field_make(3)
    assert field_make(3, 1, ()) is field_make(3)
    with pytest.raises(DegreeMismatch):
        field_from_json({"p": 3, "deg": 2, "modulus": []})


@pytest.mark.parametrize("field", [["--deg", "0"], ["--deg", "-1"],
                                   ["--deg", "2", "--modulus", ""]])
def test_construct_reads_the_field_as_given(tmp_path, capsys, field):
    # a degree below 1, or an empty modulus on F_25, is refused and never
    # replaced by a default
    out = tmp_path / "c.json"
    assert main(["construct", "dual-powers", "--p", "5", *field,
                 "--m", "3", "--s", "2", "--bottom", "1,0,0",
                 "--out", str(out)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "degree" in line["error"]
    assert not out.exists()


def test_oracle_refuses_an_entry_outside_the_field(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "field": {"p": 3},
        "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 4]]}]}))
    assert main(["oracle", str(space)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "[0, 3)" in line["error"]


def test_construct_refuses_a_negative_gamma(tmp_path, capsys):
    # over F_9, -1 encodes as 2; the int -1 would have been built as 8 and
    # labelled [1, -1]
    out = tmp_path / "c.json"
    args = ["construct", "dual-powers", "--p", "3", "--deg", "2", "--m", "4",
            "--s", "2", "--bottom", "1,0,0,0", "--out", str(out)]
    assert main([*args, "--gammas", "1,-1"]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "outside the field" in line["error"]
    assert not out.exists()
    assert main([*args, "--gammas", "1,2"]) == 0
    capsys.readouterr()
    assert load_certificate(str(out))["construction"]["params"]["gammas"] == [1, 2]


@pytest.mark.parametrize("extra", [["--s", "2", "--gammas", ""],
                                   ["--s", "2", "--gammas", ",,"],
                                   [], ["--s", "2", "--m", "4"],
                                   ["--s", "2", "--m", "3", "--bottom", "1,,0,0"],
                                   ["--s", "2", "--gammas", "1,,2"],
                                   ["--s", "2", "--deg", "2", "--modulus", "1,1,,1"]],
                         ids=["empty-gammas", "commas-only", "no-s", "m-disagrees",
                              "bottom-empty-entry", "gammas-empty-entry",
                              "modulus-empty-entry"])
def test_construct_refuses_empty_gammas_and_missing_or_disagreeing_args(
        tmp_path, capsys, extra):
    # an empty --gammas is an empty gamma set (BadGammaSet), never the
    # canonical one; --m must match the bottom row's length; an empty entry
    # of a list is refused, never dropped (without it, each list is valid)
    out = tmp_path / "c.json"
    assert main(["construct", "dual-powers", "--p", "5", "--bottom", "1,0,0",
                 "--out", str(out), *extra]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["construct", "dual-powers", "--p", "5", "--m", "3", "--s", "2", "--bottom", "1,0,0"],
    ["oracle", "space.json"]])
def test_an_empty_out_path_is_refused_not_replaced(tmp_path, capsys, monkeypatch,
                                                   command):
    (tmp_path / "space.json").write_text(json.dumps({
        "field": {"p": 3}, "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}]}))
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--out", ""]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input"
    assert sorted(os.listdir(tmp_path)) == ["space.json"]


def test_verify_flags_a_stored_report_that_differs_from_the_fresh_one(
        tmp_path, capsys):
    cert = load_certificate(os.path.join(FIXDIR, "dual_powers_f5_m4_s3.cert.json"))
    cert["report"]["base_size"] += 1
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 1 and line["stored_report_mismatch"] and not line["ok"]
    assert line["checks"]["passed"]


@pytest.mark.parametrize("edit", [{"schema_version": "2"}, {"target_basis": []}])
def test_verify_refuses_other_schemas_and_empty_targets(tmp_path, capsys, edit):
    cert = load_certificate(os.path.join(FIXDIR, "dual_powers_f5_m4_s3.cert.json"))
    rc, line = _verify(tmp_path, capsys, dict(cert, **edit))
    assert rc == 2 and line["kind"] == "input"


def test_construct_writes_no_certificate_that_verify_would_refuse(tmp_path, capsys,
                                                                   monkeypatch):
    # 528 base and 528 target members of 23 x 23 entries each declare
    # 558,624 entries: `verify` refuses that, so `construct` must not write it.
    # With the kind's entry bound at 0, the refusal is the built certificate's.
    kind = cli._KINDS["dual-powers"]
    monkeypatch.setitem(cli._KINDS, "dual-powers", kind._replace(entries=lambda m, a: 0))
    built, build = [], construct.base_dual_powers
    monkeypatch.setattr(construct, "base_dual_powers",
                        lambda *args: built.append(1) or build(*args))
    out = tmp_path / "c.json"
    assert main(["construct", "dual-powers", "--p", "29", "--s", "1",
                 "--bottom", ",".join(["1"] * 23), "--out", str(out)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "entries" in line["error"]
    assert not out.exists() and built


@pytest.mark.parametrize("args", [
    ["rect-small-n", "--n", "2", "--bottom", "1,2,3"],
    ["inverse-family", "--bottom", "1,2,3"],
    ["singular", "--s", "2", "--bottom", "0,1,2"]])
def test_root_search_over_a_huge_field_is_refused_at_once(tmp_path, capsys, args):
    # the root search evaluates every element: over F_(10^9 + 7) it ran for
    # over an hour
    out = tmp_path / "c.json"
    t0 = time.perf_counter()
    assert main(["construct", args[0], "--p", "1000000007", *args[1:],
                 "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "2^20" in line["error"]
    assert not out.exists()


def _judge(F, cert):
    """`reverify`'s verdict on a certificate whose stored report passed, from
    Field methods alone: every base member is nonzero with all 2x2 minors
    zero, the members are independent, the target keeps its stored
    dimension, and the members' span holds it."""
    def rank_one(E):
        return any(map(any, E)) and all(
            F.mul(E[i][j], E[k][l]) == F.mul(E[i][l], E[k][j])
            for i, k in itertools.combinations(range(len(E)), 2)
            for j, l in itertools.combinations(range(len(E[0])), 2))

    def vectors(key):
        return [[x for row in obj["entries"] for x in row] for obj in cert[key]]

    base, target = vectors("base"), vectors("target_basis")
    rank = lambda vecs: reference_rref(F, vecs, len(base[0]))[1]
    return (all(rank_one(obj["entries"]) for obj in cert["base"])
            and rank(base) == len(base)
            and rank(target) == cert["report"]["target_dim"]
            and rank(base + target) == len(base))


@pytest.mark.parametrize("key", ["base", "target_basis"])
def test_verify_of_an_extension_field_certificate_with_one_entry_changed(
        tmp_path, capsys, key):
    # every entry of one member of a certificate over F_9, set to each other
    # value in turn: verify accepts exactly the certificates that are true
    out = tmp_path / "f9.json"
    assert main(["construct", "dual-powers", "--p", "3", "--deg", "2", "--s", "2",
                 "--bottom", "1,3,5", "--out", str(out)]) == 0
    capsys.readouterr()
    cert = load_certificate(str(out))
    F = field_from_json(cert["field"])
    assert F.q == 9 and len(cert["base"]) == 7 and _judge(F, cert)
    entries = cert[key][0]["entries"]
    verdicts = []
    for i, j in itertools.product(range(len(entries)), range(len(entries[0]))):
        for value in range(F.q):
            if value != entries[i][j]:
                edited = copy.deepcopy(cert)
                edited[key][0]["entries"][i][j] = value
                ok = reverify(edited, 1 << 24)["ok"]
                assert ok == _judge(F, edited), (i, j, value)
                verdicts.append(ok)
    assert len(verdicts) == 72 and not all(verdicts)


# the `perfbase construct` lines of README's CLI section, by kind
with open(os.path.join(ROOT, "README.md")) as fh:
    README_CONSTRUCT = {args[0]: args for args in (
        shlex.split(line)[2:] for line in fh if line.startswith("perfbase construct "))}


def test_readme_shows_one_construct_line_for_every_kind():
    assert sorted(README_CONSTRUCT) == sorted(cli._KINDS)
    # the flags the table names are the eight parameter flags, no other
    assert cli._FLAGS == sorted(["m", "n", "s", "k", "d", "bottom", "gammas", "powers"])


def _construct(tmp_path, capsys, monkeypatch, args):
    """Run `construct` in an empty directory: its exit code, its last stdout
    line and the files it left there."""
    monkeypatch.chdir(tmp_path)
    rc = main(["construct", *args])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return rc, line, sorted(os.listdir(tmp_path))


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_each_kind_builds_its_readme_line_and_reads_only_its_own_flags(
        tmp_path, capsys, monkeypatch, kind):
    args, table = README_CONSTRUCT[kind], cli._KINDS[kind]
    rc, line, files = _construct(tmp_path, capsys, monkeypatch, args)
    assert rc == 0 and line["ok"] and files == [line["certificate"]]
    os.remove(tmp_path / line["certificate"])
    for flag in cli._FLAGS:
        if flag not in table.needs + table.takes:
            rc, line, files = _construct(tmp_path, capsys, monkeypatch,
                                         [*args, f"--{flag}", "1"])
            assert (rc, line["kind"], files) == (2, "input", []), flag
            assert line["error"] == f"{kind} does not take --{flag}"
    for flag in table.needs:
        i = args.index(f"--{flag}")
        rc, line, files = _construct(tmp_path, capsys, monkeypatch,
                                     args[:i] + args[i + 2:])
        assert (rc, line["kind"], files) == (2, "input", []), flag
        assert line["error"] == f"--{flag} is required for this construction"


SIZE_FLAGS = ("m", "n", "s", "k", "d")


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_a_negative_size_flag_is_refused_as_it_is_parsed(tmp_path, capsys, monkeypatch, kind):
    # each entry bound is a polynomial in the flags, large and positive at a
    # negative one, so the parser refuses it, as it does a non-integer,
    # before the kind's bound or its constructor is read
    args, table = README_CONSTRUCT[kind], cli._KINDS[kind]
    flags = [flag for flag in SIZE_FLAGS if flag in table.needs + table.takes]
    assert flags
    monkeypatch.setitem(cli._KINDS, kind, table._replace(entries=None, build=None))
    for flag, value in itertools.product(flags, ("-1", "-100", "x")):
        given = args[:]
        if f"--{flag}" in given:
            given[given.index(f"--{flag}") + 1] = value
        else:
            given += [f"--{flag}", value]
        rc, line, files = _construct(tmp_path, capsys, monkeypatch, given)
        assert (rc, line["kind"], files) == (2, "input", []), (flag, value)
        assert line["error"] == (f"perfbase construct: argument --{flag}: "
                                 f"expected an integer at least 0, got '{value}'")


@pytest.mark.parametrize("command", ["construct", "verify", "oracle"])
def test_a_negative_guard_is_invalid_input(tmp_path, capsys, monkeypatch, command):
    # a guard below 0, from the flag or the variable, exits 2 naming its
    # source, and writes no file; a guard of 0 stays a guard
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"field": {"p": 3, "deg": 1, "modulus": []},
                                 "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}]}))
    args = {"construct": ["construct", *README_CONSTRUCT["build-mtr"]],
            "verify": ["verify", os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json")],
            "oracle": ["oracle", str(space)]}[command]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("PERFBASE_GUARD", raising=False)

    def run(*extra):
        rc = main([*args, *extra])
        return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    rc, line = run("--guard", "-1")
    assert (rc, line["kind"]) == (2, "input") and "--guard" in line["error"]
    monkeypatch.setenv("PERFBASE_GUARD", "-1")
    rc, line = run()
    assert (rc, line["kind"]) == (2, "input") and "PERFBASE_GUARD" in line["error"]
    assert os.listdir(work) == []
    rc, line = run("--guard", "0")  # the flag wins over the variable
    assert (rc, line["kind"]) == (3, "guard")


@pytest.mark.parametrize("command", ["construct", "verify", "oracle"])
def test_a_guard_variable_that_is_not_an_integer_is_named(tmp_path, capsys, monkeypatch,
                                                           command):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"field": {"p": 3},
                                 "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}]}))
    args = {"construct": ["construct", *README_CONSTRUCT["build-mtr"]],
            "verify": ["verify", os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json")],
            "oracle": ["oracle", str(space)]}[command]
    monkeypatch.chdir(tmp_path)
    for value in ("abc", "1.5", ""):
        monkeypatch.setenv("PERFBASE_GUARD", value)
        rc = main(args)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        if value:
            assert (rc, line["kind"]) == (2, "input")
            assert line["error"] == f"PERFBASE_GUARD must be an integer, got {value!r}"
        else:  # an empty variable is no guard: the default applies
            assert rc == 0 and line["ok"]
    assert sorted(os.listdir(tmp_path)) == (["build-mtr.cert.json", "space.json"]
                                            if command == "construct" else ["space.json"])


@pytest.mark.parametrize("kind", sorted(k for k in cli._KINDS if "s" in cli._KINDS[k].needs))
@pytest.mark.parametrize("s", ["0", "-1"])
def test_s_below_one_is_blamed_on_s(tmp_path, capsys, monkeypatch, kind, s):
    args = list(README_CONSTRUCT[kind])
    args[args.index("--s") + 1] = s
    rc, line, files = _construct(tmp_path, capsys, monkeypatch, args)
    assert (rc, line["kind"], files) == (2, "input", [])
    assert re.search(r"\bs\b", line["error"]) and "first element" not in line["error"]
    with pytest.raises(ParametersOutOfRange, match="s must be at least 1"):
        construct.GammaSet.canonical(field_make(5), int(s))


@pytest.mark.parametrize("args", [
    ["construct", "dual-powers", "--p", "abc"],
    ["construct", "nope", "--p", "5"],
    ["verify"]], ids=["bad-int", "unknown-kind", "no-certificate"])
def test_usage_errors_print_the_json_line(args):
    proc = run_cli(args)
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    line = last_json(proc)
    assert line["ok"] is False and line["kind"] == "input" and line["error"]
    assert "usage:" in proc.stderr


def test_help_still_prints_and_exits_0():
    proc = run_cli(["construct", "-h"])
    assert proc.returncode == 0 and "build-mtr" in proc.stdout


def _inject(cert, where, key):
    """The certificate with `key` added to the object `where` names."""
    cert = copy.deepcopy(cert)
    obj = {"top": cert, "field": cert["field"], "code": cert["code"],
           "report": cert["report"], "construction": cert["construction"],
           "base": cert["base"][0], "target_basis": cert["target_basis"][-1],
           "code.space_basis": cert["code"]["space_basis"][1]}[where]
    obj[key] = 2
    return cert


@pytest.mark.parametrize("where,key", [
    ("field", "q"), ("base", "rank"), ("target_basis", "rank"),
    ("code.space_basis", "rank"), ("code", "distance_lower"),
    ("report", "verified_by"), ("construction", "notes"), ("top", "extra")])
def test_verify_refuses_a_key_that_no_object_of_a_certificate_may_carry(
        tmp_path, capsys, where, key):
    cert = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    assert _verify(tmp_path, capsys, cert)[0] == 0
    rc, line = _verify(tmp_path, capsys, _inject(cert, where, key))
    assert (rc, line["kind"]) == (2, "input") and repr(key) in line["error"]


def test_labels_stay_free_form(tmp_path, capsys):
    cert = load_certificate(os.path.join(FIXDIR, "gabidulin_dual_f3_m3_n3.cert.json"))
    cert["construction"]["params"]["note"] = "any label"
    cert["auxiliary"]["X"] = {"anything": [1]}
    rc, line = _verify(tmp_path, capsys, cert)
    assert rc == 0 and line["ok"]


@pytest.mark.parametrize("edit", [lambda s: s.update(note=1),
                                  lambda s: s["basis"][0].update(rank=1)],
                         ids=["top", "basis-matrix"])
def test_oracle_refuses_unknown_input_keys(tmp_path, capsys, edit):
    space = {"field": {"p": 3}, "basis": [{"n": 2, "m": 2, "entries": [[1, 0], [0, 1]]}]}
    edit(space)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert main(["oracle", str(path)]) == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["kind"] == "input" and "unknown" in line["error"]
