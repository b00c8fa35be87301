"""Checks on the library source itself."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from conftest import WEDGE_GENS
from test_cli import OUTPUT_KEYS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hslbound"


def test_no_assert_statements():
    # python -O strips assert statements, so invariants guarding certified
    # output must be explicit raises
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def _is_call(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def test_entries_are_coerced_only_by_intlinalg_vector():
    # int(e) truncates a float entry to an integer point; a vector's
    # entries go through intlinalg.vector, which rejects it.  Outside
    # intlinalg, a generator or comprehension that applies int to its own
    # loop variable, or a map of int, is such a coercion
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "intlinalg.py")
    assert sources, f"no sources under {SRC}"
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                loop_vars = {
                    n.id for gen in node.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)
                }
                elt = node.elt
                coerces = (
                    _is_call(elt, "int")
                    and len(elt.args) == 1
                    and isinstance(elt.args[0], ast.Name)
                    and elt.args[0].id in loop_vars
                )
            else:
                coerces = (
                    _is_call(node, "map")
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "int"
                )
            if coerces:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"entries coerced by int outside intlinalg.vector: {found}"


def load_perfbench(name):
    """perfbench/<name>.py, loaded from its file without importing perfbench."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_traced_names_exist():
    # the benchmark's tracer wraps library functions by module and name; a
    # renamed function would silently read 0 calls instead of failing
    tracing = load_perfbench("tracing")
    assert tracing.STAGES and tracing.HOT
    missing = [
        f"hslbound.{mod}.{name}"
        for table in (tracing.STAGES, tracing.HOT)
        for mod, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hslbound.{mod}"), name, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"


def test_perfbench_tracer_reads_memo_size():
    # Tracer.memo_size reads len(S._memo) of every semigroup it saw built;
    # a change of the memo's type must fail here, not in a traced run
    tracing = load_perfbench("tracing")
    semigroups = importlib.import_module("hslbound.semigroups")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        S = semigroups.build(WEDGE_GENS)
        semigroups.member(S, (6, 4))
    finally:
        tracer.uninstall()
    assert tracer.semigroups == [S]
    assert tracer.memo_size() == 1


def test_perfbench_sweep_digests_hold():
    # the window-sweep workload pins the sha256 of each sweep's report; a
    # sweep change that alters a report must fail here, not only in a
    # benchmark run.  Inputs and defaults as in the workload: e_max =
    # bound + 2 (10 when the bound is withheld), cap = 10 * m_q
    workloads = load_perfbench("workloads")
    cohomology = importlib.import_module("hslbound.cohomology")
    semigroups = importlib.import_module("hslbound.semigroups")
    digests = {}
    for name, gens, p, window in workloads.SWEEPS:
        if gens is None:
            doc = json.loads((ROOT / "demos" / "inputs" / f"{name}.json").read_text())
            gens = doc["generators"]
        S = semigroups.build(gens)
        cert = semigroups.find_gamma(S)
        facets = semigroups.all_facet_data(S)
        bound = cohomology.theoretical_bound(cert, semigroups.n_q(S, facets), p)
        e_max = 10 if bound is None else bound + 2
        report = cohomology.empirical_hsl(S, cert, facets, p, window, e_max, 10 * cert.m_q)
        text = json.dumps(report.as_dict(), sort_keys=True)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == workloads.SWEEP_SHA256


def test_perfbench_ladder_digests_hold(tmp_path, capsys):
    # the analyze-ladder workload pins the sha256 of each input's analyze
    # stdout and its m_Q; an output change must fail here, not only in a
    # benchmark run.  Inputs as in the workload: the demo inputs and the
    # ladder's generator lists, written to files
    workloads = load_perfbench("workloads")
    cli = importlib.import_module("hslbound.cli")
    inputs = {name: ROOT / "demos" / "inputs" / f"{name}.json" for name in workloads.DEMO_INPUTS}
    for name, gens in workloads.LADDER.items():
        inputs[name] = tmp_path / f"{name}.json"
        inputs[name].write_text(json.dumps({"generators": gens}))
    digests, m_q = {}, {}
    for name, path in inputs.items():
        assert cli.main(["analyze", "--input", str(path)]) == 0, name
        out = capsys.readouterr().out
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
        m_q[name] = json.loads(out)["m_q"]
    assert digests == workloads.LADDER_SHA256
    assert m_q == workloads.LADDER_M_Q


def test_perfbench_random_geometry_check_holds(tmp_path):
    # the random-geometry workload checks each subcone's residues and
    # determinant and each facet's invariant factors on its own; a change
    # to a subcone or facet attribute must fail here, not only in a
    # benchmark run.  One seeded semigroup per (rank, generators) cell
    pytest.importorskip("sympy")
    workloads = load_perfbench("workloads")
    geometry = load_perfbench("worker").RandomGeometry(0, 0, tmp_path)
    geometry.items = workloads.random_semigroups(0, 0, len(workloads.GEOMETRY_CELLS))
    geometry.results = []
    ops = geometry.run(None)
    geometry.check()
    assert not geometry.failures
    assert len(ops) == len(geometry.results) == len(geometry.items)


def test_perfbench_window_sweep_worker_holds(tmp_path, monkeypatch):
    # the window-sweep workload as a benchmark pass runs it: its digest,
    # violation and unknown gates and its ZeroClassResult.recheck sample
    # must hold here, not only in a benchmark run.  The worker imports
    # workloads by name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    sweep = load_perfbench("worker").WindowSweep(0, 0, tmp_path)
    sweep.setup()
    ops = sweep.run(None)
    sweep.check()
    assert not sweep.failures
    assert len(ops) == len(sweep.cases)


def test_no_test_only_definitions():
    # every top-level function or class of the library is read by the
    # library as a name, or by the library, a demo or the benchmark as an
    # attribute or an exact string (the benchmark's tracer wraps functions
    # by name), or a demo or the benchmark imports it from hslbound; one
    # that only the tests call belongs in the test oracles.  A bare name
    # outside the library may be a local variable of the same spelling, so
    # it does not count.  __init__.py re-exports by name, so it is left
    # out on both sides
    users = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    named = set()
    defined = {}
    for path in users:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if path.parent == SRC:
                    named.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "hslbound":
                    named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
        if path.parent == SRC:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = f"{path.name}:{node.lineno}"
    unread = sorted(f"{where} {name}" for name, where in defined.items() if name not in named)
    assert not unread, f"library definitions only the tests read: {unread}"


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is left out
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources, f"no sources under {SRC}"
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports in the library: {sorted(unused)}"


CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque", "bytearray"}
MUTATORS = {"append", "add", "update", "setdefault", "extend", "insert", "pop", "popitem", "clear", "remove", "discard"}


def _callee(node):
    """The last name of a decorator or a call's function, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_container(node):
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    return isinstance(node, displays) or (isinstance(node, ast.Call) and _callee(node) in CONTAINER_CALLS)


def test_no_module_level_caches():
    # state belongs to the object it describes (a semigroup's Apéry table,
    # memo and facet lists, a facet's Hermite form), so two semigroups or
    # two tests in one process share none.  A cache decorator, a mutable
    # default argument, a global statement, or a function that writes a
    # module-level container is process-wide state
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        containers = {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _is_container(node.value)
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.name} {fn.name}"
            if any(_callee(d) in ("cache", "lru_cache") for d in fn.decorator_list):
                found.append(f"{where}: cache decorator")
            if any(d is not None and _is_container(d) for d in fn.args.defaults + fn.args.kw_defaults):
                found.append(f"{where}: mutable default")
            for node in ast.walk(fn):
                target = None
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    target = node.func.value if node.func.attr in MUTATORS else None
                elif isinstance(node, ast.Global):
                    found.append(f"{where}: global {', '.join(node.names)}")
                if isinstance(target, ast.Name) and target.id in containers:
                    found.append(f"{where}: writes {target.id}")
    # the one kept: the CLI's parser, built once per process
    assert sorted(set(found)) == ["cli.py build_parser: cache decorator"]


def test_random_geometry_takes_one_elimination_per_simplex(monkeypatch):
    # the random-geometry workload's cones layer, counted without a timer:
    # build's support_forms takes one dual_basis pass for its seed simplex
    # and triangulate one per simplex, the seed included, so over the
    # workload's seed-5 inputs of pass 0 the operations take 522.  A second
    # elimination per seed or per simplex fails here
    workloads = load_perfbench("workloads")
    cones = importlib.import_module("hslbound.cones")
    semigroups = importlib.import_module("hslbound.semigroups")
    calls = []
    real = cones.dual_basis

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(cones, "dual_basis", counting)
    total = 0
    for name, gens in workloads.random_semigroups(5, 0):
        calls.clear()
        S = semigroups.build(gens)
        assert len(calls) == 1, name
        semigroups.saturation_residues(S)
        semigroups.n_q(S, semigroups.all_facet_data(S))
        total += len(calls)
        calls.clear()
        subs = cones.triangulate(S.cone)
        assert len(calls) == len(subs), name
    assert total == 522


def test_readme_documents_the_interface():
    # the README is the user's reference: every subcommand and its flags,
    # every exit code, the resource limits by name, the prime limit and
    # every output key the schema tests pin, each in backquotes
    cli = importlib.import_module("hslbound.cli")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (subcommands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    words = list(subcommands.choices)
    for parser in subcommands.choices.values():
        words += [s for a in parser._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
    words += [f"`{code}`" for code in (*range(5), cli.EXIT_BROKEN_PIPE)]
    words += ["MAX_WINDOW_DEGREES", "FACET_ELEMENT_LIMIT", str(cli.MILLER_RABIN_LIMIT)]
    words += [f"`{key}`" for keys in OUTPUT_KEYS.values() for key in keys]
    missing = [w for w in words if w not in readme]
    assert "--window" in words and not missing, f"not in the README: {missing}"


DEMO_INPUTS = ROOT / "demos" / "inputs"

# (argv, whether the sweep module is loaded after it)
SWEEP_FOOTPRINT = (
    (["analyze", "--input", str(DEMO_INPUTS / "wedge2d.json")], False),
    (["bound", "--input", str(DEMO_INPUTS / "wedge2d.json"), "--prime", "7"], False),
    (["verify", "--help"], False),
    (["verify", "--input", str(DEMO_INPUTS / "wedge2d.json"), "--prime", "2", "--window", "3"], True),
    (["dim1", "--input", str(DEMO_INPUTS / "numerical_3_5.json"), "--prime", "2"], True),
)


@pytest.mark.parametrize("argv, loads", SWEEP_FOOTPRINT, ids=["analyze", "bound", "verify-help", "verify", "dim1"])
def test_sweep_module_loads_only_for_the_sweep(argv, loads):
    # analyze and bound, the bound's own commands, never import cohomology:
    # each case runs in a fresh interpreter, whose modules it then lists
    path_dirs = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
    script = (
        "import contextlib, io, json, sys\n"
        "from hslbound import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, 'hslbound.cohomology' in sys.modules, out.getvalue()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, out = json.loads(proc.stdout)
    assert code == 0 and loaded == loads, proc.stderr
    if "--help" in argv:
        assert "at most 1000000" in " ".join(out.split())


def test_public_names_are_their_defining_modules_objects(monkeypatch):
    # each public name, and the window limit, is defined in one module; the
    # package serves the sweep module's names on first use and reads them
    # from it on every access, so a patch there is seen through the package
    hslbound = importlib.import_module("hslbound")
    cohomology = importlib.import_module("hslbound.cohomology")
    defined = defaultdict(list)
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name].append(path.stem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    defined[getattr(target, "id", None)].append(path.stem)
    assert defined["MAX_WINDOW_DEGREES"] == ["semigroups"]
    for name in hslbound.__all__:
        assert len(defined[name]) == 1, f"{name} defined in {defined[name]}"
        home = importlib.import_module(f"hslbound.{defined[name][0]}")
        assert getattr(hslbound, name) is getattr(home, name), name
    namespace = {}
    exec("from hslbound import *", namespace)
    assert all(namespace[name] is getattr(hslbound, name) for name in hslbound.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        hslbound.no_such_name
    monkeypatch.setattr(cohomology, "zero_class", object())
    assert hslbound.zero_class is cohomology.zero_class
