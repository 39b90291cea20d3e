"""`src/` carries what the CLI runs: every definition, methods too, has a caller there.

A reference that only the tests need lives in ``tests/oracles.py``.
"""

import ast
import importlib.util
from pathlib import Path

import ftl1d

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ftl1d"

# definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "entropy_K_terms": "wrapped by name in bench/tracing.targets",
    "l1_distance": "wrapped by name in bench/tracing.targets",
    "godunov": "wrapped by name in bench/tracing.targets",
    "riemann_mass": "the Riemann oracle's mass form; it goes with that oracle (ROADMAP item 5)",
}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uncalled():
    """The definitions of src/ftl1d, top-level ones and the methods of
    top-level classes but dunders, that no src/ code names.  A definition
    naming itself does not count, nor does code inside an allowlisted
    definition, which has no caller of its own, nor do imports, so neither
    do __init__.py's re-exports."""
    defined, named = set(), set()

    def visit(node, enclosing):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            names = set()
        named.update(names - enclosing)
        for child in ast.iter_child_nodes(node):
            own = {child.name} if isinstance(child, _DEFINITIONS) else set()
            visit(child, enclosing | own)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if not isinstance(top, _DEFINITIONS):
                visit(top, set())
                continue
            defined.add(top.name)
            defined.update(method.name for method in top.body
                           if isinstance(method, _DEFINITIONS[:2])
                           and not method.name.startswith("__"))
            if top.name not in ALLOWED:
                visit(top, {top.name})
    return defined - named


def test_every_src_definition_has_a_src_caller():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_every_allowed_name_is_defined_and_uncalled():
    # an entry whose definition is gone, or gained a caller, is dropped
    assert sorted(set(ALLOWED) - _uncalled()) == []


def test_every_name_the_benchmark_traces_is_its_owners_own():
    # bench/tracing.py swaps each target for a timing wrapper through its
    # owner's __dict__, so a renamed or removed name stops only a traced round
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets(ftl1d)
    assert targets
    assert [(owner.__name__, attr) for owner, attr, *_ in targets
            if attr not in owner.__dict__] == []
