import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hslbound import cli, cohomology
from hslbound.cli import main
from hslbound.cohomology import frobenius_orbit
from hslbound.intlinalg import MILLER_RABIN_LIMIT
from hslbound.semigroups import all_facet_data, build, find_gamma
from conftest import INDEX2_GENS, WEDGE_GENS

WEDGE = {"generators": WEDGE_GENS}
NS35 = {"generators": [[3], [5]]}
INDEX2 = {"generators": INDEX2_GENS}


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_wedge(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["pointed"] is True
    assert sorted(map(tuple, doc["support_forms"])) == [(-1, 5), (4, -1)]
    assert doc["n_q"] == 0
    assert doc["m_q"] <= 47
    assert doc["min_facet_value_uncertified"] <= doc["m_q"]
    assert all(f["invariant_factors"] == [1] for f in doc["facets"])
    assert doc["bounds"]["2"] == 6 and doc["bounds"]["7"] == 2


# every key of the analyze and verify output, nested ones by their path
OUTPUT_KEYS = {
    "analyze": [
        "ambient_dim", "bounds", "extreme_rays", "facet_values", "facets", "gamma", "generators",
        "grading", "lattice_basis", "m_q", "min_facet_value_uncertified", "n_q", "pointed", "rank",
        "saturated", "support_forms",
    ],
    "analyze facets": ["generators", "index", "interior_element", "invariant_factors", "support_form"],
    "verify": [
        "cap", "class_counts", "e_max", "empirical_max", "n_q", "prime", "region_counts",
        "small_char_flags", "theoretical_bound", "violations", "window",
    ],
    "verify region_counts": ["neg_boundary", "neg_interior", "outside_neg"],
    "verify class_counts": ["nilpotent", "not_nilpotent", "unknown"],
    "verify violations": ["degree", "order"],
}


def test_analyze_schema_is_stable(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    _, out, _ = run(capsys, "analyze", "--input", path)
    doc = json.loads(out)
    assert sorted(doc) == OUTPUT_KEYS["analyze"]
    assert all(sorted(facet) == OUTPUT_KEYS["analyze facets"] for facet in doc["facets"])
    assert json.loads(json.dumps(doc)) == doc


def test_verify_schema_is_stable(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    _, out, _ = run(capsys, "verify", "--input", path, "--prime", "3", "--window", "4")
    doc = json.loads(out)
    assert sorted(doc) == OUTPUT_KEYS["verify"]
    for key in ("region_counts", "class_counts"):
        assert sorted(doc[key]) == OUTPUT_KEYS[f"verify {key}"]


def test_analyze_numerical_values(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    _, out, _ = run(capsys, "analyze", "--input", path)
    doc = json.loads(out)
    assert doc["gamma"] == [8] and doc["m_q"] == 8 and doc["n_q"] == 0
    assert doc["saturated"] is False


def test_analyze_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    _, out1, _ = run(capsys, "analyze", "--input", path)
    _, out2, _ = run(capsys, "analyze", "--input", path)
    assert out1 == out2


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch):
    # the argparse tree is built once per process, and each call
    # dispatches to its subcommand through it
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    path = write_input(tmp_path, NS35)
    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "_Parser", Counting)
    try:
        code, out, _ = run(capsys, "analyze", "--input", path)
        assert code == 0 and json.loads(out)["rank"] == 1
        code, out, _ = run(capsys, "dim1", "--input", path, "--prime", "2")
        assert code == 0 and out.strip() == "3"
    finally:
        cli.build_parser.cache_clear()
    assert built.count("hslbound") == 1


def test_analyze_table_format(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    code, out, _ = run(capsys, "analyze", "--input", path, "--format", "table")
    assert code == 0
    assert "m_q" in out and "{" not in out.splitlines()[0]


def test_analyze_warns_on_unknown_field(tmp_path, capsys):
    path = write_input(tmp_path, {**NS35, "comment": "hi"})
    code, _, err = run(capsys, "analyze", "--input", path)
    assert code == 0
    assert "ignoring field 'comment'" in err


def test_analyze_not_pointed_exits_2(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[1], [-1]]})
    code, _, err = run(capsys, "analyze", "--input", path)
    assert code == 2
    assert "line" in err


def test_analyze_budget_exhausted_exits_3(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    code, _, err = run(capsys, "analyze", "--input", path, "--budget", "1")
    assert code == 3
    assert "budget" in err or "candidates" in err


@pytest.mark.parametrize("command", ["analyze", "bound", "dim1", "verify"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_1_exits_1(tmp_path, capsys, command, budget):
    path = write_input(tmp_path, NS35)
    argv = [command, "--input", path, "--budget", budget]
    if command != "analyze":
        argv += ["--prime", "2"]
    code, _, err = run(capsys, *argv)
    if command == "dim1":
        # dim1 never searches, so it takes no --budget at all
        assert code == 1 and f"unrecognized arguments: --budget {budget}" in err
    else:
        assert code == 1 and "--budget must be at least 1" in err


def test_invalid_inputs_exit_1(tmp_path, capsys):
    # not JSON, not UTF-8, and nested past the decoder's recursion limit:
    # each a one-line error, no traceback
    bad = tmp_path / "bad.json"
    for text in (b"{not json", b'{"generators": [[1]], "labels": ["\xff"]}', b"[" * 100000):
        bad.write_bytes(text)
        code, _, err = run(capsys, "analyze", "--input", str(bad))
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, text[:40]
    assert run(capsys, "analyze", "--input", str(tmp_path / "missing.json"))[0] == 1
    for doc in (
        {},
        {"generators": []},
        {"generators": [[1], [1, 2]]},
        {"generators": [[0, 0]]},
        {"generators": [[True, False], [False, True]]},
    ):
        path = write_input(tmp_path, doc, "doc.json")
        assert run(capsys, "analyze", "--input", path)[0] == 1, doc


def test_bad_flags_exit_1(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    assert run(capsys, "bound", "--input", path)[0] == 1  # missing --prime
    assert run(capsys, "nonsense")[0] == 1
    # a flag the command does not read is an unrecognized argument
    code, _, err = run(capsys, "dim1", "--input", path, "--prime", "2", "--budget", "5")
    assert code == 1 and "unrecognized arguments: --budget 5" in err


def test_bound_wedge(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, out, _ = run(capsys, "bound", "--input", path, "--prime", "53")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "bound", "--input", path, "--prime", "2")
    assert code == 0 and out.strip() == "6"


def test_bound_composite_prime(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, _, err = run(capsys, "bound", "--input", path, "--prime", "6")
    assert code == 1 and "not prime" in err


@pytest.mark.parametrize("command", ["bound", "verify", "dim1"])
def test_prime_check_exits_1(tmp_path, capsys, command):
    path = write_input(tmp_path, NS35)
    code, _, err = run(capsys, command, "--input", path, "--prime", "6")
    assert code == 1 and "not prime" in err
    # psi_12 is composite, yet passes Miller-Rabin with bases 2..37
    code, _, err = run(capsys, command, "--input", path, "--prime", str(MILLER_RABIN_LIMIT))
    assert code == 1 and "not proven deterministic" in err


def test_closed_stdout_exits_without_traceback(tmp_path):
    path = write_input(tmp_path, WEDGE)
    path_dirs = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
    script = "import sys; from hslbound.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "analyze", "--input", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()  # the reader is gone before anything is written, as after `| head -c 1`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "BrokenPipeError" not in err and "Traceback" not in err, err


def test_bound_small_characteristic(tmp_path, capsys):
    path = write_input(tmp_path, INDEX2)
    code, out, _ = run(capsys, "bound", "--input", path, "--prime", "2")
    assert code == 0
    assert out.strip() == "no guarantee: p <= N_Q = 2"


def test_verify_wedge(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, out, _ = run(
        capsys, "verify", "--input", path, "--prime", "2", "--window", "10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["empirical_max"] <= doc["theoretical_bound"]
    assert sum(doc["region_counts"].values()) == 21 * 21


def test_verify_dim1(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    code, out, _ = run(
        capsys, "verify", "--input", path, "--prime", "2", "--window", "20"
    )
    assert code == 0
    assert json.loads(out)["empirical_max"] == 3


def test_verify_small_char_omits_bound(tmp_path, capsys):
    path = write_input(tmp_path, INDEX2)
    code, out, _ = run(
        capsys, "verify", "--input", path, "--prime", "2", "--window", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theoretical_bound"] is None
    assert doc["small_char_flags"]


@pytest.mark.parametrize(
    "doc, flags, e_max, cap",
    [(WEDGE, (), 8, 450), (INDEX2, (), 10, 20), (WEDGE, ("--emax", "1", "--cap", "3"), 1, 3)],
    ids=["bound-plus-2", "bound-withheld", "flags"],
)
def test_verify_defaults(tmp_path, capsys, doc, flags, e_max, cap):
    # e_max = bound + 2, or 10 where p <= N_Q withholds the bound, and
    # cap = 10 * m_Q: wedge has m_Q 45 and bound 6 at p = 2, index2 m_Q 2
    path = write_input(tmp_path, doc)
    code, out, _ = run(capsys, "verify", "--input", path, "--prime", "2", "--window", "2", *flags)
    report = json.loads(out)
    assert code == 0 and (report["e_max"], report["cap"]) == (e_max, cap)


def test_verify_rejects_bad_window(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, _, err = run(
        capsys, "verify", "--input", path, "--prime", "2", "--window", "0"
    )
    assert code == 1 and "window" in err


def test_verify_rejects_negative_emax_and_cap(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[2, 0], [1, 1], [0, 2]]})
    for flag in ("--emax", "--cap"):
        code, out, err = run(
            capsys, "verify", "--input", path, "--prime", "3", "--window", "2", flag, "-1"
        )
        assert code == 1 and flag in err and out == ""


def test_verify_refuses_oversized_window(tmp_path, capsys):
    # refused before the gamma search: --budget 1 alone would exit 3
    path = write_input(tmp_path, NS35)
    code, out, err = run(
        capsys, "verify", "--input", path, "--prime", "2", "--window", "500000", "--budget", "1"
    )
    assert code == 1 and "1000001 degrees" in err and out == ""
    path = write_input(tmp_path, WEDGE)
    code, _, err = run(capsys, "verify", "--input", path, "--prime", "2", "--window", "500")
    assert code == 1 and "limit" in err


def test_verify_violations_exit_4(tmp_path, capsys, monkeypatch):
    # no input violates the theorem, so the sweep's bound is forced to 0
    # for p > N_Q: every degree of positive order is then listed
    monkeypatch.setattr(cohomology, "theoretical_bound", lambda cert, nq, p: None if p <= nq else 0)
    path = write_input(tmp_path, INDEX2)
    code, out, _ = run(capsys, "verify", "--input", path, "--prime", "3", "--window", "6")
    doc = json.loads(out)
    assert code == 4 and doc["theoretical_bound"] == 0 and doc["empirical_max"] > 0
    assert doc["violations"] and all(item["order"] > 0 for item in doc["violations"])
    assert all(sorted(item) == OUTPUT_KEYS["verify violations"] for item in doc["violations"])
    S = build(INDEX2["generators"])
    cert, facets = find_gamma(S), all_facet_data(S)
    for item in doc["violations"]:
        orbit = frobenius_orbit(S, cert, facets, item["degree"], 3, doc["e_max"], doc["cap"])
        assert orbit.order == item["order"], item


def test_dim1(tmp_path, capsys):
    path = write_input(tmp_path, NS35)
    code, out, _ = run(capsys, "dim1", "--input", path, "--prime", "2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "dim1", "--input", path, "--prime", "3")
    assert code == 0 and out.strip() == "1"


def test_dim1_rejects_higher_rank(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE)
    code, _, err = run(capsys, "dim1", "--input", path, "--prime", "2")
    assert code == 1 and "rank" in err


def test_dim1_on_23(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[2], [3]]})
    code, out, _ = run(capsys, "dim1", "--input", path, "--prime", "7")
    assert code == 0 and out.strip() == "1"
