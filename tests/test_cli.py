"""CLI subcommands: exit codes, JSON schema, determinism."""

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import satmeter
from satmeter import cli
from satmeter import formula as fm
from satmeter import oracle as orc
from satmeter import treedp
from satmeter.cli import _instance_id, main
from satmeter.formula import MAX_VARS, parse_dimacs, serialize_dimacs
from satmeter.planar import gen_planar_instance, partition

from conftest import random_formula

TRI = "p cnf 2 3\n1 2 0\n-1 0\n2 0\n"
PAIR = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "tri.cnf"
    p.write_text(TRI)
    return str(p)


@pytest.fixture
def pair_path(tmp_path):
    p = tmp_path / "pair.cnf"
    p.write_text(PAIR)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_ls_with_oracle(capsys, tri_path):
    code, rep = run_json(capsys, ["solve", "--alg", "ls", "--oracle", tri_path])
    assert code == 0
    assert rep["satisfied"] == 3
    assert rep["opt"] == 3
    assert rep["ratio"] == 1.0
    assert rep["schema_version"] == 1
    assert rep["instance"]["n"] == 2 and rep["instance"]["m"] == 3


def test_solve_exact_with_oracle_runs_oracle_once(
    capsys, monkeypatch, tri_path
):
    calls = []
    exact = orc.exact_maxsat
    monkeypatch.setattr(
        orc, "exact_maxsat", lambda f: calls.append(f) or exact(f)
    )
    code, rep = run_json(
        capsys, ["solve", "--alg", "exact", "--oracle", tri_path]
    )
    assert code == 0
    assert (rep["satisfied"], rep["opt"], rep["ratio"]) == (3, 3, 1.0)
    assert len(calls) == 1


def test_solve_half_pair(capsys, pair_path):
    code, rep = run_json(capsys, ["solve", "--alg", "half", pair_path])
    assert code == 0
    assert rep["satisfied"] == 1


def test_solve_all_algorithms_agree_on_satisfiable(capsys, tri_path):
    for alg in ("half", "ls", "chou", "exact"):
        code, rep = run_json(capsys, ["solve", "--alg", alg, tri_path])
        assert code == 0
        assert rep["satisfied"] >= 2
    code, rep = run_json(
        capsys, ["solve", "--alg", "planar-ptas", "--eps", "1/3", tri_path]
    )
    assert code == 0
    assert rep["satisfied"] == 3


def test_solve_deterministic_modulo_timestamp(capsys, tri_path):
    _, a = run_json(capsys, ["solve", "--alg", "chou", tri_path])
    _, b = run_json(capsys, ["solve", "--alg", "chou", tri_path])
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "args", [["--alg", "ls", "--oracle"], ["--alg", "planar-ptas", "--eps", "1/3"]]
)
def test_emit_writes_json_dump_text(capsys, monkeypatch, tmp_path, args):
    path = tmp_path / "chain.cnf"
    path.write_text(serialize_dimacs(gen_planar_instance("chain", 12, seed=4)))
    reports, build = [], cli._solve_report
    monkeypatch.setattr(cli, "_solve_report", lambda *a: reports.append(build(*a)) or reports[-1])
    assert main(["solve", *args, str(path)]) == 0
    want = io.StringIO()
    json.dump(reports[0], want, sort_keys=True, default=str)
    assert capsys.readouterr().out == want.getvalue() + "\n"


ID_BASE = "p cnf 3 2\n1 -2 0\n3 0\n"
ID_SAME = [
    "p cnf 3 2\n 1\t-2   0\n\n 3 0",  # whitespace, no final line end
    "p cnf 3 2\r\n1 -2 0\r\n3 0\r\n",
    "c a comment\np cnf 3 2\nc another\n1 -2 0\n%\n3 0\n",
    "p cnf 3 2\n1\n-2\n0 3\n0\n",  # clauses split over lines
    "p cnf 3 2\n1 -2 1 -2 0\n3 3 0\n",  # duplicate literals
    "p cnf 3 5\n1 -2 0 0\n3 0\n",  # header count and a run of terminators
]
ID_DIFFERENT = [
    "p cnf 4 2\n1 -2 0\n3 0\n",  # n
    "p cnf 3 2\n3 0\n1 -2 0\n",  # clause order
    "p cnf 3 2\n1 2 0\n3 0\n",  # a literal's sign
    "p cnf 3 2\n1 0\n-2 3 0\n",  # a clause boundary
    "p cnf 3 2\n-2 1 0\n3 0\n",  # literal order
]


def _id(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _instance_id(parse_dimacs(text))


def test_instance_id_hashes_the_int64_arrays():
    blob = np.array([3, 2, 1, 1, -2, 3], dtype="<i8").tobytes()  # n, widths, lits
    assert _id(ID_BASE) == hashlib.sha256(blob).hexdigest()[:16]
    assert _id("p cnf 2 1\n1 2 0\n") != _id("p cnf 2 2\n1 0 2 0\n")
    at_cap = np.array([MAX_VARS], dtype="<i8").tobytes()  # no clauses
    assert _id(f"p cnf {MAX_VARS} 0\n") == hashlib.sha256(at_cap).hexdigest()[:16]


def test_instance_id_follows_the_formula_not_the_text():
    base = _id(ID_BASE)
    for text in [ID_BASE, *ID_SAME]:
        assert _id(text) == _id(text.encode()) == base, text
    ids = [_id(text) for text in ID_DIFFERENT]
    assert len({base, *ids}) == 1 + len(ids)


def test_bias_report(capsys, tri_path):
    code, rep = run_json(capsys, ["bias", tri_path])
    assert code == 0
    assert rep["bias"]["b_f"] == "1"
    assert rep["bias"]["neg_vars"] == [1]


def test_partition_report_and_files(capsys, tmp_path):
    chain = tmp_path / "chain8.cnf"
    code = main(
        ["gen-planar", "--kind", "chain", "--size", "8", "--seed", "0",
         "--out", str(chain)]
    )
    assert code == 0
    capsys.readouterr()
    prefix = str(tmp_path / "out")
    code, rep = run_json(
        capsys, ["partition", "--k", "3", "--out-prefix", prefix, str(chain)]
    )
    assert code == 0
    assert rep["partition"]["ok"]
    for path in rep["part_files"]:
        assert path.startswith(prefix)


def test_hashfam_stats(capsys):
    code, rep = run_json(
        capsys, ["hashfam", "--n", "3", "--k", "2", "--a", "1", "--b", "2",
                 "--q", "5"]
    )
    assert code == 0
    assert rep["family_size"] == 25
    assert rep["marginal_counts"] == [15, 15, 15]
    assert rep["pair11_count_vars_1_2"] == 9


@pytest.mark.parametrize("spec, expected", [
    ((4, 1, 2, 3, 7), '{"family_size": 7, "marginal_counts": [5, 5, 5, 5], '
     '"pair11_count_vars_1_2": 5, "schema_version": 1, "spec": {"a": 2, "b": 3, '
     '"k": 1, "n": 4, "q": 7}, "threshold": 5}'),
    ((6, 2, 5, 8, 13), '{"family_size": 169, "marginal_counts": [104, 104, 104, '
     '104, 104, 104], "pair11_count_vars_1_2": 64, "schema_version": 1, "spec": '
     '{"a": 5, "b": 8, "k": 2, "n": 6, "q": 13}, "threshold": 8}'),
    ((4, 3, 2, 5, 11), '{"family_size": 1331, "marginal_counts": [484, 484, 484, '
     '484], "pair11_count_vars_1_2": 176, "schema_version": 1, "spec": {"a": 2, '
     '"b": 5, "k": 3, "n": 4, "q": 11}, "threshold": 4}'),
    # a = b: t = q, every member is the all-ones row
    ((5, 3, 3, 3, 7), '{"family_size": 343, "marginal_counts": [343, 343, 343, '
     '343, 343], "pair11_count_vars_1_2": 343, "schema_version": 1, "spec": {"a": '
     '3, "b": 3, "k": 3, "n": 5, "q": 7}, "threshold": 7}'),
])
def test_hashfam_reports_pinned(capsys, spec, expected):
    # the whole report, byte for byte apart from its timestamp
    n, k, a, b, q = spec
    argv = ["hashfam", "--n", n, "--k", k, "--a", a, "--b", b, "--q", q]
    assert main([str(x) for x in argv]) == 0
    rep = json.loads(capsys.readouterr().out)
    del rep["timestamp"]
    assert json.dumps(rep, sort_keys=True) == expected


def test_oracle_command(capsys, tri_path):
    code, rep = run_json(capsys, ["oracle", tri_path])
    assert code == 0
    assert rep["opt"] == 3
    assert rep["witness"] == "v -1 2 0"


def test_gen_planar_stdout(capsys):
    code = main(["gen-planar", "--kind", "chain", "--size", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("p cnf 4 3")


def test_input_errors_exit_2(capsys, tmp_path):
    assert main(["solve", "--alg", "ls", str(tmp_path / "no.cnf")]) == 2
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 -1 0\n")
    assert main(["solve", "--alg", "ls", str(bad)]) == 2
    not_utf8 = tmp_path / "latin1.cnf"
    not_utf8.write_bytes(b"p cnf 2 1\n1 \xff 0\n")
    capsys.readouterr()
    assert main(["solve", "--alg", "ls", str(not_utf8)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    huge = tmp_path / "huge.cnf"  # beyond int64: must not wrap into range
    huge.write_text("p cnf 2 1\n1 99999999999999999999999 0\n")
    assert main(["solve", "--alg", "ls", str(huge)]) == 2
    assert "literal 99999999999999999999999 out of range" in capsys.readouterr().err
    assert main(["gen-planar", "--kind", "grid", "--size", "x"]) == 2
    assert main(["solve", "--alg", "nope", str(bad)]) == 2  # argparse error
    ok = tmp_path / "ok.cnf"
    ok.write_text(TRI)
    assert main(["solve", "--alg", "planar-ptas", str(ok)]) == 2  # no --eps
    assert main(["partition", "--k", "1", str(ok)]) == 2
    for eps in ("2", "abc", "1/0"):
        assert main(["solve", "--alg", "planar-ptas", "--eps", eps, str(ok)]) == 2
    assert main(["gen-planar", "--kind", "grid", "--size", "0x5"]) == 2
    assert main(["gen-planar", "--kind", "chain", "--size", "1"]) == 2
    hashfam = ["hashfam", "--k", "2", "--a", "1", "--b", "2"]
    assert main(hashfam + ["--n", "1"]) == 2  # n < k
    assert main(hashfam + ["--n", "3", "--q", "4"]) == 2  # q not prime
    capsys.readouterr()
    assert main(hashfam + ["--n", "3", "--q", "0"]) == 2  # 0 is a given q, not "unset"
    assert "q must be prime and >= max(n, b)" in capsys.readouterr().err
    # over --limit before any prime search or primality test on a huge field
    capsys.readouterr()
    for spec in (["--b", "1000000000000000000"],
                 ["--b", "2", "--q", "1000000000000000003", "--limit", "100"]):
        assert main(["hashfam", "--n", "3", "--k", "2", "--a", "1", *spec]) == 2
        assert "exceeds --limit" in capsys.readouterr().err
    assert main(["hashfam", "--n", "3", "--k", "0", "--a", "1",
                 "--b", "1000000000000000000"]) == 2
    assert "need n >= k >= 1" in capsys.readouterr().err
    missing = tmp_path / "missing"  # output paths in a directory that is not there
    assert main(["gen-planar", "--kind", "chain", "--size", "4",
                 "--out", str(missing / "x.cnf")]) == 2
    assert f"error: cannot write {missing / 'x.cnf'}" in capsys.readouterr().err
    assert main(["partition", "--k", "3", "--out-prefix", str(missing / "p"), str(ok)]) == 2
    assert f"error: cannot write {missing / 'p'}.part1.cnf" in capsys.readouterr().err
    # n above MAX_VARS, in a child process under a 1 GB address-space limit,
    # so a per-variable allocation fails the test instead of the machine
    huge_n = tmp_path / "huge-n.cnf"
    huge_n.write_text("p cnf 99999999999999999999 1\n1 0\n")
    over = tmp_path / "over.cnf"
    over.write_text(f"p cnf {MAX_VARS + 1} 1\n1 0\n")
    cases = [["solve", "--alg", "half", str(huge_n)], ["bias", str(huge_n)],
             ["partition", "--k", "3", str(huge_n)], ["solve", "--alg", "half", str(over)],
             ["gen-planar", "--kind", "chain", "--size", "1000000000"],
             ["gen-planar", "--kind", "grid", "--size", f"{MAX_VARS + 1}x1"]]
    assert _exit_codes_within_1gb(cases) == [2] * len(cases)


def _exit_codes_within_1gb(cases: list[list[str]]) -> list[int]:
    """``main``'s exit code on each argument list, run in one child process
    whose address space is capped at 1 GB."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("import json, sys; from satmeter.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    src = os.path.dirname(os.path.dirname(satmeter.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", code, json.dumps(cases)], env=env,
                           preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_oracle_cap_exits_2(capsys, tmp_path):
    # the oracle checks its cap before it allocates anything
    big = tmp_path / "big.cnf"
    big.write_text(f"p cnf {orc.ORACLE_VAR_CAP + 1} 1\n1 2 0\n")
    for argv in (
        ["solve", "--alg", "exact", str(big)],
        ["solve", "--alg", "half", "--oracle", str(big)],
        ["oracle", str(big)],
    ):
        assert main(argv) == 2
        assert "exceeds oracle cap" in capsys.readouterr().err


def test_bias_cap_exits_2(capsys, tmp_path):
    # the bias report lists every per-variable bias, so n is capped before
    # the profile is built; n at the cap still reports
    six = tmp_path / "six.cnf"
    six.write_text("p cnf 6 1\n1 0\n")
    with mock.patch.object(cli, "BIAS_VAR_CAP", 5):
        assert main(["bias", str(six)]) == 2
    assert "error: n=6 exceeds the bias cap 5" in capsys.readouterr().err
    with mock.patch.object(cli, "BIAS_VAR_CAP", 6):
        assert main(["bias", str(six)]) == 0


def test_huge_band_modulus_runs(capsys, tmp_path):
    # k = 2 * 10**13: far more residues than triples, none allocated
    chain = tmp_path / "chain20.cnf"
    assert main(["gen-planar", "--kind", "chain", "--size", "20",
                 "--out", str(chain)]) == 0
    code, rep = run_json(
        capsys,
        ["solve", "--alg", "planar-ptas", "--eps", "1/10000000000000",
         "--oracle", str(chain)],
    )
    assert code == 0
    assert rep["satisfied"] == rep["opt"]
    # the band is charged for the d/2 + 2 residue counters it holds, so any
    # larger k reports the space of k = d/2 + 2
    deepest = max(partition(parse_dimacs(chain.read_bytes()), 2).level_of.values())
    depth = deepest + deepest % 2
    code, least = run_json(
        capsys,
        ["solve", "--alg", "planar-ptas", "--eps", f"2/{depth // 2 + 2}", str(chain)],
    )
    assert code == 0 and least["details"]["k"] == depth // 2 + 2
    assert rep["space"] == least["space"]
    code, rep = run_json(capsys, ["partition", "--k", "10000000000000", str(chain)])
    assert code == 0 and rep["partition"]["ok"]


@pytest.mark.parametrize("text, cells, passes", [
    ("p cnf 40 5\n1 2 0\n2 3 0\n-3 0\n10 11 0\n11 -12 0\n", 42,
     {"bfs": 7, "decomposition": 47, "parts": 1}),
    ("p cnf 1000 3\n1 0\n2 -1 0\n500 0\n", 320,
     {"bfs": 7, "decomposition": 21, "parts": 1}),
], ids=["n40", "n1000"])
def test_bfs_charge_counts_unused_variables(capsys, tmp_path, text, cells, passes):
    # the BFS stand-in is charged for the declared n + m + 2 vertices, the
    # variables in no clause included, though the graph keys only the others
    path = tmp_path / "unused.cnf"
    path.write_text(text)
    code, rep = run_json(capsys, ["solve", "--alg", "planar-ptas", "--eps", "1/3", str(path)])
    assert code == 0
    assert (rep["space"]["peak_aux_cells"], rep["space"]["pass_counts"]) == (cells, passes)


def test_partition_at_the_variable_cap_exits_0(tmp_path):
    # one clause over n = MAX_VARS declared variables: the incidence graph
    # keys only x1, so nothing is allocated per declared variable
    cap = tmp_path / "cap.cnf"
    cap.write_text(f"p cnf {MAX_VARS} 1\n1 0\n")
    assert _exit_codes_within_1gb([["partition", "--k", "3", str(cap)]]) == [0]


def _dimacs(path, n, clauses):
    path.write_text(f"p cnf {n} {len(clauses)}\n"
                    + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    return str(path)


def test_chou_walks_a_1200_wise_family(capsys, tmp_path):
    # one 1,200-literal clause and the equivalences x_i = x_{i+1}, i odd:
    # chou searches a family with k = 1,200, whose block walk must not
    # recurse, and q^k has far more than 4,300 digits
    pairs = [c for i in range(1, 1200, 2) for c in ((i, -(i + 1)), (-i, i + 1))]
    path = _dimacs(tmp_path / "wide1200.cnf", 1200, [tuple(range(1, 1201)), *pairs])
    assert main(["solve", "--alg", "chou", path]) == 0
    details = cli._in_full(json.loads, capsys.readouterr().out)["details"]
    assert details["branch"] == "family-search" and not details["fallback"]
    assert details["family_size"] == details["q"] ** 1200


def test_exact_integers_print_in_full(capsys, tmp_path):
    # the bias profile's scale is 2^15000; b_F = 2 (2^14999 - 1) + 14998
    path = _dimacs(tmp_path / "wide15000.cnf", 15000, [tuple(range(1, 15001)), (-1,), (-2,)])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    reports = {}
    for argv in (["bias"], ["solve", "--alg", "chou"], ["solve", "--alg", "ls"],
                 ["solve", "--alg", "half"]):
        assert main([*argv, path]) == 0, argv
        reports[argv[-1]] = cli._in_full(json.loads, capsys.readouterr().out)
    bias = reports["bias"]["bias"]
    b_f = (1 << 15000) + 14996
    assert (bias["scale"], bias["b_f_scaled"]) == (1 << 15000, b_f)
    assert cli._in_full(Fraction, bias["b_f"]) == Fraction(b_f, 1 << 15000)
    assert reports["chou"]["details"]["b_f"] == bias["b_f"]
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    # parsing keeps the limit: a 5,000-digit token is still a bad token
    token = tmp_path / "token.cnf"
    token.write_text("p cnf 2 1\n" + "1" * 5000 + " 0\n")
    assert main(["solve", "--alg", "half", str(token)]) == 2
    assert "error: bad token" in capsys.readouterr().err


def test_pack_cap_exits_2(capsys, tmp_path, tri_path):
    # the padded (m, max width) layout is checked before it is allocated
    with mock.patch.object(fm, "PACK_CELL_CAP", 5):
        with pytest.raises(fm.CapError, match="exceed pack cap 5 cells"):
            fm.pack_clauses(parse_dimacs(TRI))
        assert main(["solve", "--alg", "ls", tri_path]) == 2
    assert "error: 3 clauses padded to width 2 exceed pack cap 5 cells" in capsys.readouterr().err
    # 12,001 clauses padded to width 12,000 would take 1.07 GiB per int64
    # array; half and chou (the b_F > b* branch) never pack them
    clauses = [tuple(range(1, 12001))] + [(-i,) for i in range(1, 12001)]
    path = _dimacs(tmp_path / "wide12000.cnf", 12000, clauses)
    cases = [["solve", "--alg", alg, path] for alg in ("ls", "half", "chou")]
    assert _exit_codes_within_1gb(cases) == [2, 0, 0]


def test_pattern_cap_exits_2(capsys, tmp_path):
    # random 3-CNFs through the PTAS at eps 1/3: at n = 60 one part's plan
    # would hold 1,073,742,168 extension patterns, refused before any is
    # built; at n = 20 the plan stays under the cap
    paths = []
    for n in (60, 20):
        path = tmp_path / f"random{n}.cnf"
        path.write_text(serialize_dimacs(random_formula(random.Random(1), n, 4 * n, 3)))
        paths.append(str(path))
    with mock.patch.object(treedp, "PATTERN_CAP", 5):
        assert main(["solve", "--alg", "planar-ptas", "--eps", "1/3", paths[1]]) == 2
    assert "extension patterns, above the pattern cap 5" in capsys.readouterr().err
    cases = [["solve", "--alg", "planar-ptas", "--eps", "1/3", path] for path in paths]
    assert _exit_codes_within_1gb(cases) == [2, 0]


def test_frame_cap_exits_2(capsys, tmp_path):
    # a random 3-CNF at n = 40 passes the pattern cap (131,321 patterns),
    # but its one wide part's plan would run 1,945,108,481 frames: refused
    # before the DP starts, where it ran for over a minute
    path = tmp_path / "random40.cnf"
    path.write_text(serialize_dimacs(random_formula(random.Random(1), 40, 160, 3)))
    unbuilt = mock.patch.object(treedp, "_patterns", side_effect=AssertionError("built"))
    with unbuilt:
        assert main(["solve", "--alg", "planar-ptas", "--eps", "1/3", str(path)]) == 2
    assert ("error: the DP plan needs 1945108481 frames, above the frame cap 134217728"
            in capsys.readouterr().err)
