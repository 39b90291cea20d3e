"""`src/` carries what the CLI runs: every top-level definition has a caller there.

A reference that only the tests need lives in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ftl1d"

# top-level definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "entropy_K_terms": "wrapped by name in bench/tracing.targets",
    "l1_distance": "wrapped by name in bench/tracing.targets",
    "godunov": "wrapped by name in bench/tracing.targets",
    "riemann_mass": "the Riemann oracle's mass form; it goes with that oracle (ROADMAP item 5)",
}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uncalled():
    """The top-level definitions of src/ftl1d that no src/ code names: a
    definition naming itself does not count, nor do imports, so neither do
    __init__.py's re-exports."""
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            own = top.name if isinstance(top, _DEFINITIONS) else None
            if own is not None:
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    named.add(name)
    return defined - named


def test_every_src_definition_has_a_src_caller():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_every_allowed_name_is_defined_and_uncalled():
    # an entry whose definition is gone, or gained a caller, is dropped
    assert sorted(set(ALLOWED) - _uncalled()) == []
