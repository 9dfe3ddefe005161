"""Every imported name is used: a stand-in for a linter's unused-import rule.

Each module under ``src/latentgraph`` and ``tests`` is parsed; a name bound
by ``import`` or ``from ... import`` counts as used when the module reads it,
lists it in ``__all__``, or takes it as a function argument (a pytest fixture
imported by name).  Package ``__init__.py`` files, which re-export, and
``from __future__`` imports are exempt.  A fresh interpreter also checks
that the unfolding solver loads no ``scipy.optimize``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src/latentgraph", "tests") for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"
)
# (module, name) -> why the import stays although the module never reads it
ALLOWED = {
    ("src/latentgraph/linkgraph.py", "pairwise_distances"):
        "perfbench/tracing.py wraps linkgraph.pairwise_distances by name",
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    module = str(path.relative_to(ROOT))
    unused = [(line, name) for line, name in unused_imports(path.read_text(encoding="utf-8"))
              if (module, name) not in ALLOWED]
    assert not unused, f"{module}: unused imports {unused}"


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\n", [(1, "c")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import fixture\ndef test_x(fixture):\n    pass\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import os\n", [(2, "os")]),
])
def test_the_check_finds_unused_names(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowed_imports_are_still_unused(module, name):
    # an allowance goes when its module starts reading the name
    assert name in {n for _, n in unused_imports((ROOT / module).read_text(encoding="utf-8"))}


_NO_OPTIMIZE_SCRIPT = """
import sys
import latentgraph
latentgraph.solve_mvu(latentgraph.Adjacency.from_edges(4, [[0, 1], [1, 2], [2, 3]]), rank=2)
loaded = sorted(m for m in sys.modules if m == "scipy.optimize" or m.startswith("scipy.optimize."))
assert not loaded, loaded
"""


def test_unfolding_loads_no_scipy_optimize():
    # the import once raised the unfold benchmark's peak RSS by 12.6 %; the
    # solver's L-BFGS is written out instead.  A subprocess, since this one
    # may hold the module for another test
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _NO_OPTIMIZE_SCRIPT], env=dict(os.environ, PYTHONPATH=path),
                   check=True, timeout=120)
