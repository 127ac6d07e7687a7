"""The oracle's table search against the one-test-at-a-time DFS it replaced.

`reference_levels` is that DFS, kept here as the test oracle: it reduces
every candidate against the chosen rows and against V at every node and
charges one test per candidate tried.  The table search must give the same
tensor rank, the same witness and the same number of membership tests at
every candidate rank R, so its guard fires on exactly the same inputs.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from perfbase import tensor3
from perfbase.cli import main
from perfbase.errors import GuardExceeded, ParametersOutOfRange
from perfbase.exactla import FqMatrix, MatrixSpace, dual_complement
from perfbase.gf import field_make
from perfbase.tensor3 import exhaustive_trk, kruskal_bound, rank_one_matrices

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)


# --- the reference search -------------------------------------------------------


def _leading_index(vec):
    return next((i for i, v in enumerate(vec) if v), None)


def _reduce_against(F, rows, pivots, vec):
    vec = list(vec)
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
    return vec


def _reference_search(F, candidates, R, vrows, vpivots, budget):
    n_cand = len(candidates)

    def dfs(start, chosen, arows, apivots, avrows, avpivots):
        t = len(chosen)
        if t == R:
            return list(chosen) if len(avrows) == R else None
        for idx in range(start, n_cand):
            if n_cand - idx < R - t:
                break
            budget[0] -= 1
            if budget[0] < 0:
                raise GuardExceeded("reference search exceeded its guard")
            vec = candidates[idx]
            red = _reduce_against(F, arows, apivots, vec)
            lead = _leading_index(red)
            if lead is None:
                continue  # dependent on chosen
            redv = _reduce_against(F, avrows, avpivots, vec)
            leadv = _leading_index(redv)
            new_av = len(avrows) + (1 if leadv is not None else 0)
            if new_av > R:
                continue  # span + V can no longer shrink back to R
            arows.append([F.mul(F.inv(red[lead]), v) for v in red])
            apivots.append(lead)
            if leadv is not None:
                avrows.append([F.mul(F.inv(redv[leadv]), v) for v in redv])
                avpivots.append(leadv)
            chosen.append(idx)
            hit = dfs(idx + 1, chosen, arows, apivots, avrows, avpivots)
            if hit is not None:
                return hit
            chosen.pop()
            arows.pop()
            apivots.pop()
            if leadv is not None:
                avrows.pop()
                avpivots.pop()
        return None

    return dfs(0, [], [], [], [list(r) for r in vrows], list(vpivots))


def reference_levels(V, limit):
    """(R, witness vectors or None, tests) per level, as `tensor3._rank_levels`."""
    n, m = V.shape
    k = V.dim
    candidates = [A.vectorize() for A in rank_one_matrices(V.field, n, m)]
    start = k
    if (V.field.q ** k - 1) // (V.field.q - 1) <= 4096:
        d = min(A.rank() for A in V.iter_elements(nonzero_only=True))
        start = kruskal_bound(k, d)
    budget = [limit]
    out = []
    for R in range(start, n * m + 1):
        before = budget[0]
        found = _reference_search(V.field, candidates, R, V._rrows, V._pivots,
                                  budget)
        witness = None if found is None else [candidates[i] for i in found]
        out.append((R, witness, before - budget[0]))
        if witness is not None:
            return out
    raise AssertionError("the full unit basis always succeeds")


def table_levels(V, limit=tensor3.DEFAULT_GUARD):
    return [(R, None if w is None else [tuple(v) for v in w], tests)
            for R, w, tests in tensor3._rank_levels(V, limit)]


# --- the spaces compared ------------------------------------------------------------


def _space(F, mats):
    return MatrixSpace.from_matrices([FqMatrix(F, A) for A in mats])


def _tensor3_cases():
    """Every exhaustive_trk input of test_tensor3.py and criterion 5."""
    cases = [MatrixSpace.from_matrices([FqMatrix.identity(F, 2)])
             for F in (F2, F3)]
    for a1 in range(3):
        for a2 in range(3):
            cases.append(_space(F3, [[[1, 0], [0, 1]], [[0, 1], [a1, a2]]]))
    for F in (F2, F3):
        cases.append(dual_complement(MatrixSpace.from_matrices(
            [FqMatrix.identity(F, 2)])))
    cases.append(dual_complement(MatrixSpace.from_matrices(
        [FqMatrix.identity(F2, 3)])))
    rng = random.Random(5)
    for _ in range(10):
        mats = [[[rng.randrange(2) for _ in range(3)] for _ in range(2)]
                for _ in range(2)]
        V = _space(F2, mats)
        if V.dim:
            cases.append(V)
    return cases


def _random_spaces(F, n, dims, seed):
    rng = random.Random(seed)
    out = []
    for dim in dims:
        while True:
            V = _space(F, [[[rng.randrange(F.q) for _ in range(n)]
                            for _ in range(n)] for _ in range(dim)])
            if V.dim == dim:
                out.append(V)
                break
    return out


SMALL_FIELD_CASES = (
    [(F, V) for F in (F2, F3, F4) for V in _random_spaces(F, 2, (1, 2, 3), F.q)]
    + [(F2, V) for V in _random_spaces(F2, 3, (1, 2, 3, 6), 21)]
    + [(F3, V) for V in _random_spaces(F3, 3, (1, 2, 7), 31)]
    + [(F4, V) for V in _random_spaces(F4, 3, (1, 7, 8), 41)])


def _assert_same_levels(V):
    new = table_levels(V)
    assert new == reference_levels(V, tensor3.DEFAULT_GUARD)
    trk, wit = exhaustive_trk(V)
    assert (trk, [A.vectorize() for A in wit.matrices]) == new[-1][:2]
    return new


def test_table_search_matches_reference_on_tensor3_cases():
    for V in _tensor3_cases():
        _assert_same_levels(V)


@pytest.mark.parametrize("F,V", SMALL_FIELD_CASES,
                         ids=[f"{F!r}-{V!r}" for F, V in SMALL_FIELD_CASES])
def test_table_search_matches_reference_on_small_fields(F, V):
    levels = _assert_same_levels(V)
    assert levels[-1][2] > 0


def test_list_tables_match_numpy_tables_over_prime_fields(monkeypatch):
    spaces = [V for _, V in SMALL_FIELD_CASES if V.field.deg == 1][::2]
    expected = [table_levels(V) for V in spaces]
    monkeypatch.setattr(tensor3, "_NumpyTables", tensor3._ListTables)
    assert [table_levels(V) for V in spaces] == expected


def test_oracle_over_a_prime_beyond_int64_products():
    p = (1 << 61) - 1
    F = field_make(p)
    trk, wit = exhaustive_trk(_space(F, [[[5]]]))
    assert trk == 1 and wit.matrices[0].rows == ((1,),)


# --- the guard --------------------------------------------------------------------------


@pytest.mark.parametrize("deg", [1, 2])
def test_guard_boundary_is_the_exact_test_count(deg):
    F = field_make(2, deg)
    for V in _random_spaces(F, 3, (2, 3), 7):
        levels = table_levels(V)
        total = sum(tests for _, _, tests in levels)
        trk, _ = exhaustive_trk(V, limit=total)
        assert trk == levels[-1][0]
        with pytest.raises(GuardExceeded) as info:
            exhaustive_trk(V, limit=total - 1)
        assert info.value.progress == {"phase": "oracle", "R": trk,
                                       "tests_used": total - 1}


def test_guard_progress_names_the_rank_reached():
    # a nilpotent pencil: Kruskal bound 2, tensor rank 3
    V = _space(F3, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    levels = table_levels(V)
    assert [R for R, _, _ in levels] == [2, 3]
    first = levels[0][2]
    with pytest.raises(GuardExceeded) as info:
        exhaustive_trk(V, limit=first + 1)
    assert info.value.progress == {"phase": "oracle", "R": levels[1][0],
                                   "tests_used": first + 1}
    with pytest.raises(GuardExceeded) as info:
        exhaustive_trk(V, limit=0)
    assert info.value.progress == {"phase": "oracle", "R": levels[0][0],
                                   "tests_used": 0}


# --- input size ---------------------------------------------------------------------------


def test_oversized_space_is_refused_before_enumeration():
    F7 = field_make(7)
    V = MatrixSpace.from_matrices([FqMatrix.identity(F7, 6)])
    t0 = time.perf_counter()
    with pytest.raises(ParametersOutOfRange):
        exhaustive_trk(V)
    assert time.perf_counter() - t0 < 0.5


def test_size_limit_boundary():
    # 1 x m over F_2: 2^m - 1 candidates of m entries
    assert (2 ** 16 - 1) * 16 < tensor3.ORACLE_MAX_ENTRIES < (2 ** 17 - 1) * 17
    ones = lambda m: _space(F2, [[[1] * m]])
    assert exhaustive_trk(ones(16))[0] == 1
    with pytest.raises(ParametersOutOfRange):
        exhaustive_trk(ones(17))


def _oracle_cli(tmp_path, capsys, obj, *extra):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(obj))
    rc = main(["oracle", str(space), *extra])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_refuses_oversized_space(tmp_path, capsys):
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    rc, out = _oracle_cli(tmp_path, capsys, {
        "field": {"p": 7}, "basis": [{"n": 6, "m": 6, "entries": eye}]})
    assert rc == 2 and out["kind"] == "input"


@pytest.mark.parametrize("obj", [
    {"field": {"p": 3}},
    {"field": {"p": 3}, "basis": []},
    {"basis": [{"n": 1, "m": 1, "entries": [[1]]}]},
    {"field": {"p": 3}, "basis": [{"n": 1, "m": 1}]},
    {"field": {"p": 3}, "basis": {"n": 1}},
    {"field": {"p": 3}, "basis": [[1]]},
    {"field": [3], "basis": [{"n": 1, "m": 1, "entries": [[1]]}]},
    [1, 2],
])
def test_cli_malformed_oracle_input_is_an_input_error(tmp_path, capsys, obj):
    rc, out = _oracle_cli(tmp_path, capsys, obj)
    assert rc == 2 and out["kind"] == "input" and not out["ok"]


def test_cli_malformed_oracle_input_has_no_traceback(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"field": {"p": 3}}))
    proc = subprocess.run([sys.executable, "-m", "perfbase", "oracle", str(space)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["kind"] == "input"


def test_cli_guard_exit_reports_progress(tmp_path, capsys):
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    obj = {"field": {"p": 2}, "basis": [{"n": 3, "m": 3, "entries": eye}]}
    rc, out = _oracle_cli(tmp_path, capsys, obj, "--guard", "0")
    assert rc == 3 and out["kind"] == "guard"
    assert out["progress"] == {"phase": "oracle", "R": 3, "tests_used": 0}
    # mid-search: the nilpotent pencil spends its guard in its second level
    pencil = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    first = table_levels(_space(F3, pencil))[0][2]
    obj = {"field": {"p": 3},
           "basis": [{"n": 2, "m": 2, "entries": A} for A in pencil]}
    rc, out = _oracle_cli(tmp_path, capsys, obj, "--guard", str(first + 1))
    assert rc == 3 and out["kind"] == "guard"
    assert out["progress"] == {"phase": "oracle", "R": 3, "tests_used": first + 1}
