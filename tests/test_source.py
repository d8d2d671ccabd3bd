"""Source checks that need no linter: every module of the package, of
tests/ and of tools/ uses each name it imports, every private
module-level name is used somewhere in the package, every defaulted
parameter of a package function is set by some call of the package or
the benchmark, no module imports
scipy (at import time or in a function), only data_model._store sets
the field of a frozen container, metric_learning multiplies no array by
its own transpose view, every backticked `<module>.<name>` of a
package module in README.md names an attribute that exists, the CLI's
choices come from their enums, every function the benchmark wraps exists, every command it
runs parses, and each of its ops calls the wrapped functions recorded
for it and passes its workload's check."""

import ast
import dataclasses
import importlib.util
import re
import sys
from enum import Enum
from pathlib import Path

import pytest

import metamine

PACKAGE = sorted(Path(metamine.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"
SCRIPTS = sorted([*REPO.glob("tests/*.py"), *REPO.glob("tools/*.py")])


def unused_imports(source):
    """The names a module imports but never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    # annotations count as uses: ast parses them as names even where
    # `from __future__ import annotations` keeps them unevaluated
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [
    *(pytest.param(p, id=p.name) for p in PACKAGE),
    *(pytest.param(p, id=str(p.relative_to(REPO))) for p in SCRIPTS)])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    assert unused_imports("import csv\nfrom typing import Optional, "
                          "Sequence\nx: Optional[int] = None\n") \
        == ["csv", "Sequence"]


def dead_private_names(sources):
    """The private (`_name`) functions, classes and assignments at module
    level in any of the sources that none of them references."""
    defined, used = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):    # io._write_lines
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):   # from .io import _x
                used.update(alias.name for alias in node.names)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in used]


def test_every_private_name_is_used():
    assert dead_private_names(p.read_text(encoding="utf-8")
                              for p in PACKAGE) == []


def test_check_sees_a_dead_helper():
    assert dead_private_names([
        "def _used():\n    pass\n\ndef _dead():\n    _LIMIT = 1\n\n"
        "_LIMIT = 3\n_SHARED = 4\nclass _Old:\n    pass\nx = _used()\n",
        "from .a import _SHARED\n",
    ]) == ["_dead", "_LIMIT", "_Old"]


def unset_defaults(definitions, callers):
    """`function.parameter` of each defaulted parameter of a function
    defined in the `definitions` sources that no call in the `callers`
    sources passes, by position or by keyword. Calls match by the called
    name alone, and one that unpacks *args or **kwargs passes them all."""
    defaults = {}           # (function, parameter) -> position in a call
    for tree in map(ast.parse, definitions):
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = id(node) in methods and "staticmethod" not in {
                getattr(d, "id", None) for d in node.decorator_list}
            for index in range(len(positional) - len(args.defaults), len(positional)):
                defaults[node.name, positional[index].arg] = index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaults[node.name, arg.arg] = None
    passed = set()
    for tree in map(ast.parse, callers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((name, key.arg) for key in node.keywords)
                passed.update((name, index) for index in range(len(node.args)))
                if (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(key.arg is None for key in node.keywords)):
                    passed.add((name, "*"))
    return [f"{name}.{parameter}" for (name, parameter), index in defaults.items()
            if not passed & {(name, parameter), (name, index), (name, "*")}]


def test_every_defaulted_parameter_is_set():
    """A default that no call of the package or the benchmark overrides is
    a setting with one value in use, so it is a constant or dead code;
    calls from tests do not count."""
    package = [p.read_text(encoding="utf-8") for p in PACKAGE]
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert unset_defaults(package, package + bench) == []


def test_check_sees_an_unset_default():
    assert unset_defaults([
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0, y=0):\n    pass\n"
        "class C:\n    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n    def s(r=0, z=0):\n        pass\n",
    ], [
        "f(1, c=5)\ng(*xs)\nC().m(7)\nC.s(0)\n",
        "def f(b=0):\n    pass\n",      # a definition is not a call
    ]) == ["f.b", "f.d", "m.q", "s.z"]


def module_level_scipy_imports(source):
    """The scipy modules a module imports when it is itself imported: every
    scipy import outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names
                             if alias.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom) and not child.level
                  and child.module.split(".")[0] == "scipy"):
                found.append(child.module)
            visit(child)
    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    """synth, ingest and predict never import scipy.stats (README), so no
    module of the package imports scipy at import time."""
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_a_module_level_scipy_import():
    assert module_level_scipy_imports(
        "import numpy as np\nimport scipy.stats\n"
        "try:\n    from scipy import linalg\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy.special import expit\n"
        "def f():\n    from scipy import stats\n    import scipy\n"
        "g = lambda: __import__('scipy')\nfrom . import scipy_like\n") \
        == ["scipy.stats", "scipy", "scipy.special"]


def scipy_imports(source):
    """Every scipy module a module imports, inside a function or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "scipy"):
            found.append(node.module)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_import(path):
    """The package runs on numpy alone: scipy is a test dependency."""
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_a_scipy_import_in_a_function():
    assert scipy_imports(
        "import numpy as np\nimport scipy.stats\n"
        "def f():\n    from scipy import stats\n    import scipy\n"
        "g = lambda: __import__('scipy')\nfrom . import scipy_like\n") \
        == ["scipy.stats", "scipy", "scipy"]


def setattr_callers(source):
    """The name of the function around each object.__setattr__ call of a
    module (None for a call outside every function)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "object"):
                found.append(function)
            visit(child, function)
    visit(ast.parse(source), None)
    return found


def test_only_store_sets_frozen_fields():
    """Every frozen container stores its fields through data_model._store,
    the one place their conversions are applied."""
    assert {(p.name, caller) for p in PACKAGE
            for caller in setattr_callers(p.read_text(encoding="utf-8"))} \
        == {("data_model.py", "_store")}


def test_check_sees_a_field_set_outside_store():
    assert setattr_callers(
        "def _store(obj, **convert):\n    object.__setattr__(obj, 'a', 1)\n"
        "class C:\n    def __post_init__(self):\n"
        "        f = lambda: object.__setattr__(self, 'b', 2)\n"
        "        setattr(self, 'c', 3)\n"
        "object.__setattr__(C, 'd', 4)\n") == ["_store", "__post_init__", None]


def self_transpose_products(source):
    """Each `@` of a module whose operands are one expression and its own
    `.mT` or `.T` view, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(b, ast.Attribute) and b.attr in ("mT", "T")
                        and ast.dump(b.value) == ast.dump(a)):
                    found.append(ast.unparse(node))
                    break
    return found


def test_descent_makes_no_self_transpose_product():
    """numpy hands a buffer times its own transpose view to dsyrk, slower
    than dgemm on the descent's stacks (README, Determinism), so every Gram
    product of the trainer multiplies by a copied transpose."""
    source = Path(metamine.__file__).parent / "metric_learning.py"
    assert self_transpose_products(source.read_text(encoding="utf-8")) == []


def test_check_sees_a_self_transpose_product():
    assert self_transpose_products(
        "a = p @ p.mT\nb = w.T @ w\nc = s - red.rx @ red.rx.mT\n"
        "d = p @ p.mT.copy()\ne = p @ w.mT\nf = p.mT @ q\n") \
        == ["p @ p.mT", "w.T @ w", "red.rx @ red.rx.mT"]


def missing_readme_names(text):
    """`<module>.<name>` of each backticked span of a markdown text, fenced
    blocks aside, that starts with a package module (after an optional
    `metamine.`) and an attribute the module lacks; `<module>.py` is a
    file name."""
    modules = "|".join(p.stem for p in PACKAGE if p.stem != "__init__")
    spans = re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", text, flags=re.S))
    found = [re.match(rf"(?:metamine\.)?({modules})\.(\w+)", span) for span in spans]
    return [f"{m[1]}.{m[2]}" for m in found if m and m[2] != "py"
            and not hasattr(importlib.import_module(f"metamine.{m[1]}"), m[2])]


def test_readme_names_exist():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    assert missing_readme_names(text) == []


def test_check_sees_a_missing_readme_name():
    assert missing_readme_names(
        "`io._write_csv`, `io.py`, `metamine.cli.main`, `recommend.predict(q)`,"
        " `metamine.io.nope`, `Objective.kind`, `np.matvec`\n```sh\n"
        "`io.fenced`\n```\n`preference.spearman` `synth.gone`") \
        == ["io._write_csv", "io.nope", "synth.gone"]


def flag_choices(parser, subcommand, dest):
    return list(next(action.choices for action
                     in parser.subcommands[subcommand]._actions
                     if action.dest == dest))


@pytest.mark.parametrize("subcommand, dest, enum_name", [
    ("train", "objective", "ObjectiveKind"), ("evaluate", "protocol", "Protocol"),
    ("predict", "task", "Task")])
def test_cli_choices_come_from_their_enum(subcommand, dest, enum_name,
                                          monkeypatch):
    """The choices equal the enum's values, and follow the enum: a parser
    built while cli sees another enum offers that enum's values."""
    from metamine import cli
    assert flag_choices(cli.build_parser(), subcommand, dest) \
        == [member.value for member in getattr(cli, enum_name)]
    monkeypatch.setattr(cli, enum_name, Enum(enum_name, {"OTHER": "other"}))
    assert flag_choices(cli.build_parser(), subcommand, dest) == ["other"]



def load_bench(name):
    """bench/<name>.py loaded from the file as it is: registered in
    sys.modules while it runs (dataclasses look their module up there),
    with its sibling modules importable for the load only and no bytecode
    written under bench/."""
    before = set(sys.modules)
    wrote_bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = wrote_bytecode
        for loaded in set(sys.modules) - before:
            source = getattr(sys.modules[loaded], "__file__", None)
            if source and Path(source).parent == BENCH:
                del sys.modules[loaded]
    return module


def bench_targets():
    """The TARGETS of bench/layers.py."""
    return load_bench("layers").TARGETS


@pytest.mark.parametrize("target", bench_targets(), ids=lambda t: t.name)
def test_every_benchmark_target_resolves(target):
    """A refactor that drops or renames a function the traced benchmark
    run wraps fails here, not in that run."""
    module_name, _, class_name = target.owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
    assert callable(getattr(holder, target.attr, None))


def bench_commands():
    """(workload, argv) of every generate and op command of every
    benchmark workload, each argument as a string, as bench/workloads.py
    passes it to cli.main."""
    workloads = load_bench("workloads").WORKLOADS
    return [(name, [str(arg) for arg in argv])
            for name, workload in workloads.items()
            for argv in (workload.generate(1, Path("inputs"))
                         + workload.op(Path("inputs"), Path("out")))]


@pytest.mark.parametrize("workload, argv", bench_commands(),
                         ids=lambda v: v if isinstance(v, str) else v[0])
def test_every_benchmark_command_parses(workload, argv):
    """A refactor that drops or renames a flag a benchmark workload still
    passes fails here, not in the benchmark run."""
    from metamine import cli
    cli.build_parser().parse_args(argv)


def bench_small():
    """The synth sizes of bench/tests/test_bench.py::SMALL, read as the
    literal of its `SMALL = {...}` assignment, without importing it."""
    tree = ast.parse((BENCH / "tests" / "test_bench.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["SMALL"])


SMALL = bench_small()

# workload -> the bench/layers.py targets its op never calls; synth runs
# in the set-up alone
NEVER_CALLED = {
    "lodo-20x10": {
        "evaluation.render_table", "evaluation.run_lodwo",
        "evaluation.run_lowo", "io.load_model", "io.read_outcome_dir",
        "io.read_significance_csv", "io.save_model",
        "io.write_descriptor_csv", "io.write_outcome_dir",
        "io.write_performance_csv", "io.write_preference_csv",
        "metric_learning.build_objective", "metric_learning.gradient",
        "metric_learning.minimize", "metric_learning.objective_value",
        "metric_learning.train",
        "preference.build_preference_from_significance",
        "preference.build_preference_matrix", "preference.similarity_target",
        "recommend.knn_predict_dataset_prefs",
        "recommend.knn_predict_workflow_prefs",
        "recommend.learned_similarity",
        "recommend.predict_dataset_prefs_direct", "recommend.predict_pair",
        "synth.generate"},
    "train-serve-200x50": {
        "evaluation.render_table", "evaluation.run_lodo",
        "evaluation.run_lodwo", "evaluation.run_lowo", "evaluation.to_dict",
        "io.read_outcome_dir", "io.read_significance_csv",
        "io.write_outcome_dir", "metric_learning.build_objective",
        "metric_learning.gradient", "metric_learning.minimize",
        "metric_learning.objective_value",
        "preference.build_preference_from_significance",
        "preference.build_preference_matrix", "preference.similarity_target",
        "recommend.default_strategy", "recommend.euclidean_strategy",
        "recommend.knn_predict_dataset_prefs",
        "recommend.knn_predict_workflow_prefs",
        "recommend.learned_similarity",
        "recommend.predict_dataset_prefs_direct", "synth.generate"},
    "ingest-10x40": {
        "evaluation.render_table", "evaluation.run_lodo",
        "evaluation.run_lodwo", "evaluation.run_lowo", "evaluation.to_dict",
        "io.load_model", "io.read_preference_csv", "io.read_significance_csv",
        "io.save_model", "io.write_outcome_dir",
        "metric_learning.build_objective", "metric_learning.gradient",
        "metric_learning.minimize", "metric_learning.objective_value",
        "metric_learning.train",
        "preference.build_preference_from_significance",
        "preference.similarity_target", "recommend.default_strategy",
        "recommend.euclidean_strategy", "recommend.knn_predict_dataset_prefs",
        "recommend.knn_predict_workflow_prefs",
        "recommend.learned_similarity",
        "recommend.predict_dataset_prefs_direct", "recommend.predict_pair",
        "recommend.predict_workflow_prefs_direct", "synth.generate"},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_ops_call_the_recorded_targets(name, tmp_path):
    """The traced benchmark finds a layer by wrapping a module-level name,
    so a refactor that moves the work out from under a wrapper leaves that
    layer's metrics at 0 and raises nothing. Each workload, shrunk, runs
    its set-up and one op through cli.main with every target wrapped; the
    targets the op never calls must be the recorded ones, and the op's
    outputs must pass the workload's own check."""
    from metamine import cli
    layers = load_bench("layers")
    workload = dataclasses.replace(load_bench("workloads").WORKLOADS[name],
                                   synth=SMALL[name])
    inputs, out = tmp_path / "inputs", tmp_path / "out"

    def run(commands):
        return [cli.main([str(arg) for arg in argv]) for argv in commands]

    assert set(run(workload.generate(1, inputs))) == {0}
    tracer = load_bench("spans").Tracer(layers.TARGETS)
    tracer.install()
    try:
        assert set(run(workload.op(inputs, out))) == {0}
    finally:
        tracer.remove()
    called = {span.name for span in tracer.spans} | {
        target for _, target in tracer.counts}
    assert {t.name for t in layers.TARGETS} - called == NEVER_CALLED[name]
    assert workload.check(inputs, out, workload.reference(inputs)).problems == ()
