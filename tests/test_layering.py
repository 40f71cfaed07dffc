"""The modules of ``wignerlab`` import one another without a cycle: every
relative import counts, at module level or inside a function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wignerlab"


def _imports(path: Path) -> set[str]:
    """The package modules that one module's relative imports name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                # "from . import groups" names a module, "from . import __version__" the package
                out |= {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                        for a in node.names}
    return out


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path of module names, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            if found := visit(target):
                return found
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        if found := visit(name):
            return found
    return None


def test_the_package_has_no_import_cycle():
    graph = {p.stem: _imports(p) for p in PACKAGE.glob("*.py")}
    assert {"states", "wigner", "groups", "matrixcore"} <= graph.keys()
    assert "states" in graph["wigner"]
    cycle = _cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_the_cycle_finder_sees_a_function_level_import(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("from .b import f\n")
    b = tmp_path / "b.py"
    b.write_text("def f():\n    from .a import g\n    return g\n")
    graph = {p.stem: _imports(p) for p in (a, b)}
    assert graph == {"a": {"b"}, "b": {"a"}}
    assert _cycle(graph) == ["a", "b", "a"]
