"""Every public name of the package has a caller outside the tests,
every name a module imports is used in that module, labels are checked
only where they enter, class-axis sums go through ``nn.row_sum``,
binary files go through one writer and one reader, one function gives
the order of a model's parameters, unit 0 is the identity by its
position alone, and every stage of a pipeline runs as a direct child of
the pipeline's function.

The names checked are those in ``noiseattn.__all__`` and, in every module
of the package, each public module-level function, each class and each
public method or property of its classes. A name counts as used when a
module of the package other than ``__init__.py`` refers to it outside
its own definition, or when a benchmark module other than
``perfbench/tracer.py`` names it. The tracer does not count: it patches
every public name from outside and keys its metrics on qualified names,
some of which no longer exist, so naming a function there is no call. A
method counts as used when any such module refers to an attribute of its
name. Helpers that only tests call live in the tests.
"""

import ast
import inspect
import re
from pathlib import Path

import noiseattn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noiseattn"

# Public names kept without such a caller, each with its reason.
ALLOWED = {
    "empirical_transition": "ROADMAP item 2 compares each learned unit with it",
    "combine_supervisions": "the copying form of the combine run_recursion does in place",
}


def references(tree) -> set[str]:
    """Names and attribute names a module refers to, each outside the
    function or class that defines it."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def defined_names(tree) -> dict[str, str]:
    """Qualified name -> the name a caller uses, for each public
    module-level function, each class and each public method or property
    of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                names[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            names[node.name] = node.name
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    names[f"{node.name}.{item.name}"] = item.name
    return names


def imported_names(tree) -> set[str]:
    """Names a module binds by import; ``from __future__`` imports bind none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_every_import_is_used():
    unused = {}
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused[path.name] = sorted(imported_names(tree) - loaded)
    assert {name: left for name, left in unused.items() if left} == {}
    assert len(unused) > 5  # the glob found the modules


def functions_where(match) -> set[str]:
    """``module.qualified.function`` of every function in the package that
    holds a node for which ``match(node)`` is true."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif match(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def names(node, name) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def callers(name) -> set[str]:
    """Every function that calls ``name``, by its bare name or as an attribute."""
    return functions_where(lambda node: isinstance(node, ast.Call) and names(node.func, name))


def referrers(name) -> set[str]:
    """Every function that names ``name`` in an expression, so a function
    picked by a conditional and called later counts too."""
    return functions_where(lambda node: isinstance(node, (ast.Name, ast.Attribute))
                           and names(node, name))


def test_labels_are_checked_only_where_they_enter():
    """Datasets, injected noise, a dataset fitted to a model (for a run's
    split and CLI ``eval``) and each trainer epoch (through
    ``Trainer._columns``, which ``run_recursion`` uses too) check their
    labels; the routing and supervision code inside takes them as they
    are. A dataset checks its labels in ``Dataset._check_labels``, which
    ``inject_noise`` calls on its noisy copy without reading the features."""
    assert callers("check_labels") == {"data.Dataset._check_labels", "data.noisy_labels",
                                       "harness._check_fit", "training.Trainer._columns"}
    assert callers("_check_labels") == {"data.Dataset.__post_init__", "data.inject_noise"}
    assert callers("_columns") == {"recursion.run_recursion", "training.Trainer.train_epoch",
                                   "training.Trainer.val_loss"}


def per_row_reduce(node) -> bool:
    """``np.add.reduce`` along axis 1, -1 or 2, or ``np.maximum.reduce``
    along axis 1 or -1, by keyword or by position; an axis that is not a
    literal counts too."""
    func = getattr(node, "func", None)
    kind = getattr(getattr(func, "value", None), "attr", None)
    if not (isinstance(node, ast.Call) and getattr(func, "attr", None) == "reduce"
            and kind in ("add", "maximum")):
        return False
    rows = {1, -1, 2} if kind == "add" else {1, -1}
    for axis in [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[1:2]:
        try:
            if ast.literal_eval(axis) in rows:
                return True
        except ValueError:
            return True
    return False


def test_class_axis_sums_go_through_row_sum():
    """A per-row reduce along a narrow class axis pays one inner-loop call
    per row; ``nn.row_sum`` sums such rows column by column with the same
    bits. Only it and ``nn.softmax`` (which keeps numpy's reduce for wide
    rows) may reduce along a row."""
    assert functions_where(per_row_reduce) == {"nn.row_sum", "nn.softmax"}


def test_one_evaluator_branches_on_the_kind():
    """Callers evaluate a model through ``harness.evaluate``, which takes any
    network or heads view; it alone picks the multi-attribute metric."""
    assert callers("evaluate_all_metric") == referrers("evaluate_all_metric") == {
        "harness.evaluate"}


def binary_file_io(node) -> bool:
    """A call of ``open`` with a literal mode that holds ``b``, or of
    ``read_bytes`` or ``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    if names(node.func, "read_bytes") or names(node.func, "write_bytes"):
        return True
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return names(node.func, "open") and any(
        isinstance(mode, ast.Constant) and "b" in str(mode.value) for mode in modes)


def raw_file_io(node) -> bool:
    """``os.open`` or an ``os.pread*`` call, by attribute, by name or by
    ``from os import``."""
    def raw(name):
        return name == "open" or name.startswith("pread")

    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(raw(alias.name) for alias in node.names)
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "os" and raw(node.attr)
    return isinstance(node, ast.Name) and node.id.startswith("pread")


def test_one_binary_layer():
    """NLD1 and NAM files are written by ``data._write`` and read by
    ``data._Reader``; no other code opens a file in binary mode, and only
    the reader makes raw or positional reads."""
    assert functions_where(binary_file_io) == {"data._write", "data._Reader.__init__"}
    raw = functions_where(raw_file_io)
    assert raw and {where.rpartition(".")[0] for where in raw} == {"data._Reader"}


def test_every_public_name_has_a_caller_outside_the_tests():
    used, checked = set(), {}
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            used |= references(tree)
            checked.update({f"{path.stem}.{qual}": name
                            for qual, name in defined_names(tree).items()})
    for path in (ROOT / "perfbench").rglob("*.py"):
        if path.name != "tracer.py":
            used |= set(re.findall(r"\w+", path.read_text()))
    checked.update({name: name for name in noiseattn.__all__
                    if not inspect.ismodule(getattr(noiseattn, name))})
    unused = {qual for qual, name in checked.items() if name not in used}
    allowed = {qual for qual, name in checked.items() if name in ALLOWED}
    assert sorted(unused - allowed) == []
    assert allowed <= unused  # an entry that gains a caller leaves the list
    assert {checked[qual] for qual in allowed} == set(ALLOWED)


def test_one_parameter_order():
    """The order of a model's parameters is said once, by
    ``training._param_chain``: snapshots are written and read in it, and a
    divergence names the first non-finite parameter by it."""
    assert callers("_param_chain") == referrers("_param_chain") == {
        "harness.save_snapshot", "harness.load_snapshot",
        "training.Trainer._non_finite_parameter"}


def test_the_identity_is_unit_zero():
    """Which unit is the identity is said by position: the learnable units
    are ``units[1:]`` and the decay anchor is ``units[0]``. No module keeps
    a per-unit ``frozen`` flag or a second identity matrix ``_eye``; the
    ``frozen`` keyword of ``@dataclass`` is neither a name nor an attribute."""
    assert functions_where(lambda node: names(node, "frozen") or names(node, "_eye")) == set()


STAGE_ENTRIES = {"train_epoch", "val_loss", "run_recursion", "evaluate", "resolve_data",
                 "save_snapshot", "export_q"}
PIPELINES = {"run_experiment", "resume_recursion"}


def stage_entry(node) -> bool:
    """A call of a stage entry or of ``metrics.write``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (any(names(func, name) for name in STAGE_ENTRIES)
            or names(func, "write") and names(getattr(func, "value", None), "metrics"))


def owners_where(match) -> dict[str, str]:
    """``module.qualified.function`` -> the name of its innermost enclosing
    module-level function or method, for every function of the package that
    holds a node for which ``match(node)`` is true."""
    found = {}

    def visit(node, where, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif match(node):
            found[where] = owner
        for child in ast.iter_child_nodes(node):
            visit(child, where, owner)

    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    visit(item, f"{path.stem}.{top.name}", getattr(item, "name", None))
            else:
                visit(top, path.stem, getattr(top, "name", None))
    return found


def test_stages_run_as_direct_children_of_the_pipelines():
    """The benchmark's tracer wraps every public function and method, and
    attributes a stage to the stage entries that are direct children of the
    ``run_experiment`` span; a public function or method between them would
    take its stage out of that count. So each call of a stage entry sits in
    a private function or method, or in a pipeline function itself. The
    three-valued plateau decision is gone: ``UnitSchedule.plateaued`` says
    whether the validation loss has plateaued."""
    owners = owners_where(stage_entry)
    assert {qual: owner for qual, owner in owners.items()
            if not str(owner).startswith("_") and owner not in PIPELINES} == {}
    assert PIPELINES <= set(owners.values())  # the scan found the pipelines
    for name in ("Decision", "schedule_step"):
        assert not hasattr(noiseattn.attention, name) and name not in noiseattn.__all__
