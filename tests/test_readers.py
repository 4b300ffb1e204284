"""Every top-level function, class and method of the package has a reader
in src/: code that only tests call leaves the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "focalcir"

# the definitions no package code reads, and why each stays
NO_READER_IN_SRC = {
    "evaluation.RankingResult.target_rank": "imported by the fixed tests/test_acceptance.py",
    "evaluation.recall_at_k": "imported by the fixed tests/test_acceptance.py",
    "evaluation.instance_recall_at_k": "imported by the fixed tests/test_acceptance.py",
    "fusion.modulated_cross_attention": "imported by the fixed tests/test_acceptance.py",
    "numerics.similarity.cosine_sim": "the one-pair reference for cosine_sim_matrix",
    "numerics.tensor.mul": "the gradchecks' two-input elementwise op (random linear "
                           "functionals, the product rule, fan-out); no model op has two "
                           "same-shape inputs",
    "numerics.tensor.parameter": "builds the trainable leaves of the tests",
}


def definitions(tree):
    """(qualified name, name) of each top-level def and class and each method.
    Dunder methods are left out: the language calls them, not a reader."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        yield f"{node.name}.{sub.name}", sub.name


def reads(tree):
    """Every name the code loads, bare or as an attribute. An import, such as
    an __init__ re-export, is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_definition_in_src_has_a_reader():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read = {name for tree in trees.values() for name in reads(tree)}
    unread = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        unread |= {f"{module}.{qual}" for qual, name in definitions(tree) if name not in read}
    # an entry that gains a reader leaves the list too
    assert unread == set(NO_READER_IN_SRC)
