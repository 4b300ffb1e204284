"""Every top-level function, class and method of the package has a reader
in src/, every defaulted parameter has a caller that passes it, every
config field has a caller that sets it, and so does every defaulted
constructor field of every other dataclass: code and knobs that only tests
use leave the package. Every name a module imports is read in it. Only the
tape, `_recorded` and `backward` touch the tape's entries."""

import ast
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "focalcir"

# the definitions no package code reads, and why each stays
NO_READER_IN_SRC = {
    "evaluation.RankingResult.target_rank": "imported by the fixed tests/test_acceptance.py",
    "evaluation.recall_at_k": "imported by the fixed tests/test_acceptance.py",
    "evaluation.instance_recall_at_k": "imported by the fixed tests/test_acceptance.py",
    "fusion.modulated_cross_attention": "imported by the fixed tests/test_acceptance.py",
    "numerics.tensor.mul": "the gradchecks' two-input elementwise op (random linear "
                           "functionals, the product rule, fan-out); no model op has two "
                           "same-shape inputs",
    "numerics.tensor.parameter": "builds the trainable leaves of the tests",
}

# the code whose calls count as passing a parameter: the package, the
# benchmark and the fixed acceptance tests
CALLERS = [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# the defaulted parameters no caller passes, and why each stays
UNPASSED_DEFAULTS: dict[str, str] = {}

# the config fields no caller sets, and why each stays
UNSET_CONFIG_FIELDS = {
    "ModelConfig.n_heads": "tests exercise the multi-head path, and acceptance criterion 1b "
                           "exercises it through modulated_cross_attention",
    "TrainConfig.subsets": "a leave-one-out run sets it in its config file, so that the config "
                           "hash names the training subsets; no code may set it behind the hash",
}

# the defaulted constructor fields of the other dataclasses that no caller
# sets, and why each stays
UNSET_DATACLASS_FIELDS = {
    f"Benchmark.{cache}": "dataclasses.replace(bench, eval_quads=...) carries the cache into "
                          "each robustness view, which init=False would drop"
    for cache in ("_by_id", "_patches", "_texts")
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, name, kind) of each top-level def and class (kind
    "function") and each method ("method", or "property" for a property).
    Dunder methods are left out: the language calls them, not a reader."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, "function"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(sub.name)):
                        prop = any(_named(d, "property") for d in sub.decorator_list)
                        yield f"{node.name}.{sub.name}", sub.name, "property" if prop else "method"


def reads(tree):
    """The names the code loads, as (bare names, attribute names, attribute
    names that are called). An import, such as an __init__ re-export, is
    not a read."""
    bare, attrs, called = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return bare, attrs, called


def field_names(tree):
    """The names of the annotated fields and __slots__ entries of every class."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
            elif isinstance(sub, ast.Assign) and any(_named(t, "__slots__") for t in sub.targets):
                names.update(c.value for c in ast.walk(sub.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def module_of(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def unread_definitions(trees):
    """The module-qualified definitions of trees ({module: tree}) that no tree
    reads. The package never reads a function or class through a module
    alias, so only a bare name reads one (`seen.add` is no read of `add`).
    A method is read by a call of its name or by a load of a name that no
    class has as a field or slot (a bound method passed on): a load of
    `x.rank` reads a field `rank` as well as a method `rank`, so it is no
    read of the method. A property is read by any attribute load, as a
    field is, so a same-named field can still hide an unread property."""
    bare, attrs, called, fields = set(), set(), set(), set()
    for tree in trees.values():
        b, a, c = reads(tree)
        bare |= b
        attrs |= a
        called |= c
        fields |= field_names(tree)
    read_as = {"function": bare, "method": bare | called | (attrs - fields),
               "property": attrs}
    return {f"{module}.{qual}" for module, tree in trees.items()
            for qual, name, kind in definitions(tree) if name not in read_as[kind]}


def test_every_definition_in_src_has_a_reader():
    trees = {module_of(path): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    # an entry that gains a reader leaves the list too
    assert unread_definitions(trees) == set(NO_READER_IN_SRC)


_FIELDS_AND_METHODS = """
from dataclasses import dataclass

@dataclass
class Outcome:
    rank: int

class Slotted:
    __slots__ = ("score",)

class Result:
    def rank(self): ...
    def score(self): ...
    def order(self): ...
    def passed_on(self): ...
    @property
    def size(self): ...

def read(o=Outcome(1), s=Slotted(), r=Result()):
    return o.rank, s.score, r.order(), map(r.passed_on, ()), r.size, READ_RANK

read()
"""


@pytest.mark.parametrize("read_rank, unread", [
    ("None", {"m.Result.rank", "m.Result.score"}),
    ("Result().rank()", {"m.Result.score"}),
])
def test_a_field_or_slot_load_is_no_read_of_a_method(read_rank, unread):
    # loading a field's name does not read a method of that name; calling it does
    tree = ast.parse(_FIELDS_AND_METHODS.replace("READ_RANK", read_rank))
    assert unread_definitions({"m": tree}) == unread


def defaulted(tree):
    """(qualified name, called name, {parameter: call position or None}) of
    the defaulted parameters of each top-level function and method. A class
    is called by its own name for its __init__; a method's position does
    not count self. A keyword-only parameter has no position."""
    def params(fn, offset):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out = {p.arg: i - offset for i, p in enumerate(positional) if i >= first}
        out.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
        return out

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, params(node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if sub.name == "__init__":
                    yield f"{node.name}.__init__", node.name, params(sub, 1)
                elif not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub.name, params(sub, 1)


def passed(trees):
    """What the calls of each name pass, bare or as an attribute: name ->
    keywords (None for a `**` spread, which may pass any), and name -> the
    most positions one call passes (every one, for a `*` spread)."""
    keywords, positions = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions.get(name, 0), math.inf if starred else len(node.args))
    return keywords, positions


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    keywords, positions = passed(ast.parse(path.read_text()) for path in CALLERS)
    unpassed = set()
    for path in sorted(SRC.rglob("*.py")):
        for qual, name, params in defaulted(ast.parse(path.read_text())):
            kw = keywords.get(name, set())
            for param, position in params.items():
                if not (None in kw or param in kw
                        or (position is not None and position < positions.get(name, 0))):
                    unpassed.add(f"{module_of(path)}.{qual}.{param}")
    # a default no caller overrides is a knob without a caller: make it a
    # constant, or list it here with the reason it stays
    assert unpassed == set(UNPASSED_DEFAULTS)


def config_fields(tree):
    """(class name, field name) of each annotated field of each ConfigSection
    subclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "ConfigSection" for b in node.bases):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def set_fields(trees):
    """What the callers set: class name -> the keywords of its calls ("replace"
    for dataclasses.replace, which may set a field of any class), and the
    string keys of every dict literal, which a config file or header read
    turns into fields."""
    keywords, keys = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            elif isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys
                            if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keywords, keys


def test_every_config_field_has_a_caller_that_sets_it():
    keywords, keys = set_fields(ast.parse(path.read_text()) for path in CALLERS)
    unset = set()
    for path in sorted(SRC.rglob("*.py")):
        for cls, name in config_fields(ast.parse(path.read_text())):
            if name not in keywords.get(cls, set()) | keywords.get("replace", set()) | keys:
                unset.add(f"{cls}.{name}")
    # a field no caller sets is a knob without a caller: make it a constant
    # beside the code that reads it, or list it here with the reason it stays
    assert unset == set(UNSET_CONFIG_FIELDS)


def _named(node, name):
    return getattr(node, "id", None) == name


def constructor_fields(tree):
    """(class name, field name, position, whether it has a default) of each
    constructor field of each top-level @dataclass that is no ConfigSection
    (the rule above checks those, whose fields a config file sets through
    its keys). A field(init=False) is no constructor field."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef)
                and any(_named(d.func if isinstance(d, ast.Call) else d, "dataclass")
                        for d in node.decorator_list)
                and not any(_named(b, "ConfigSection") for b in node.bases)):
            continue
        position = 0
        for sub in node.body:
            if not (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)):
                continue
            value = sub.value
            if isinstance(value, ast.Call) and _named(value.func, "field"):
                keywords = {k.arg: k.value for k in value.keywords}
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                value = keywords.get("default", keywords.get("default_factory"))
            yield node.name, sub.target.id, position, value is not None
            position += 1


def test_every_defaulted_dataclass_field_has_a_caller_that_sets_it():
    keywords, positions = passed(ast.parse(path.read_text()) for path in CALLERS)
    unset = set()
    for path in sorted(SRC.rglob("*.py")):
        for cls, name, position, has_default in constructor_fields(ast.parse(path.read_text())):
            kw = keywords.get(cls, set()) | keywords.get("replace", set())
            if has_default and not (None in kw or name in kw
                                    or position < positions.get(cls, 0)):
                unset.add(f"{cls}.{name}")
    # a default no caller overrides is a knob without a caller, and state the
    # class sets up itself is field(init=False): make the one a constant and
    # the other no constructor field, or list it here with the reason it stays
    assert unset == set(UNSET_DATACLASS_FIELDS)


def imported_names(tree):
    """(bound name, line) of each name an import binds anywhere in a module;
    `from __future__ import annotations` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_imported_names_binds_what_each_import_form_binds():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\n"
                     "import os.path\nfrom a.b import c, d as e\n"
                     "def f():\n    from g import h\n")
    assert list(imported_names(tree)) == [("np", 2), ("os", 3), ("c", 4), ("e", 4), ("h", 6)]


def test_every_import_in_src_is_read():
    # a package __init__ imports to re-export, so its imports need no reader
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bare, _, _ = reads(tree)
        unread += [f"{module_of(path)}:{line} {name}"
                   for name, line in imported_names(tree) if name not in bare]
    assert unread == []


def test_only_recorded_and_backward_touch_the_tape_entries_outside_the_tape():
    # one function records an op, so whether and what an op records is
    # written once; `backward` replays the entries
    touching = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == "Tape":
                continue
            if any(isinstance(n, ast.Attribute) and n.attr == "_entries" for n in ast.walk(node)):
                touching.add(f"{module_of(path)}.{getattr(node, 'name', node.lineno)}")
    assert touching == {"numerics.tensor._recorded", "numerics.tensor.backward"}
