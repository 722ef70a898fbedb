"""The layer map in ``docs/architecture.md`` is what ``src/repro`` imports.

Every cross-package import, at module level or inside a function, must go
to a package the importer's row of the layer table lists under "depends
on".  The imports that go against the map are listed below by module,
each with the reason it is still there; an exception nothing needs any
more fails the test too, so the list only shrinks.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "architecture.md"
PACKAGES = {path.parent.name for path in SRC.glob("*/__init__.py")}

#: ``(module, imported package) -> "lazy" | "any"``: "lazy" allows the
#: import only inside a function, "any" at module level too
EXCEPTIONS = {
    # the fleet engine and its request type live in serving until they
    # move to a package below models
    ("repro.models.deep.ranknet", "serving"): "any",
    ("repro.strategy.optimizer", "serving"): "any",
    # serving's codecs, sessions and engine read feature series and the
    # nn kernels, precision tiers and RNG snapshots directly
    ("repro.serving.client", "data"): "any",
    ("repro.serving.sessions", "data"): "any",
    ("repro.serving.smoke", "data"): "any",
    ("repro.serving.wire", "data"): "any",
    ("repro.serving.engine", "nn"): "any",
    ("repro.serving.requests", "nn"): "lazy",
    ("repro.serving.sessions", "nn"): "any",
    ("repro.serving.wire", "nn"): "any",
    # the routes that run sweeps, scenarios and promotions, resolved when
    # a request needs them
    ("repro.serving.executor", "strategy"): "lazy",
    ("repro.serving.wire", "strategy"): "lazy",
    ("repro.serving.wire", "scenarios"): "lazy",
    ("repro.serving.server", "scenarios"): "lazy",
    ("repro.serving.server", "learning"): "lazy",
    # shadow evaluation replays holdout races through the served path
    ("repro.learning.shadow", "serving"): "any",
    ("repro.learning.smoke", "serving"): "lazy",
    # telemetry's npz round trip reuses the checkpoint helpers
    ("repro.simulation.telemetry", "nn"): "any",
}


def layer_table():
    """``package -> packages it may import``, read from the doc's table."""
    table = {}
    for line in DOC.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4:
            continue
        packages = re.findall(r"`repro\.(\w+)`", cells[1])
        if "everything" in cells[3]:
            allowed = set(PACKAGES)
        else:
            allowed = set(re.findall(r"\w+", cells[3])) & PACKAGES
        for package in packages:
            table[package] = allowed
    return table


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _targets(node, module: str, is_package: bool):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.level:
        return [node.module]
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)]
    if node.module:
        return [".".join(base + [node.module])]
    return [".".join(base + [alias.name]) for alias in node.names]


def imports():
    """Every ``(module, imported module, lazy)`` in ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)

        def visit(node, lazy):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _targets(node, module, path.name == "__init__.py"):
                    found.append((module, target, lazy))
            inside = lazy or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def cross_package_imports():
    """``(module, its package, imported module, imported package, lazy)``."""
    for module, target, lazy in imports():
        parts, target_parts = module.split("."), target.split(".")
        if target_parts[0] != "repro" or len(parts) < 2 or len(target_parts) < 2:
            continue
        if parts[1] != target_parts[1]:
            yield module, parts[1], target, target_parts[1], lazy


def test_the_table_covers_every_package():
    assert set(layer_table()) == PACKAGES


def test_every_cross_package_import_follows_the_layer_table():
    table = layer_table()
    offenders = []
    for module, package, target, target_package, lazy in cross_package_imports():
        if target_package in table[package]:
            continue
        allowed = EXCEPTIONS.get((module, target_package))
        if allowed == "any" or (allowed == "lazy" and lazy):
            continue
        offenders.append(f"{module} -> {target}" + (" (lazy)" if lazy else ""))
    assert offenders == [], "imports against docs/architecture.md: " + ", ".join(offenders)


def test_every_exception_is_still_needed():
    table = layer_table()
    used = {
        (module, target_package)
        for module, package, _, target_package, _ in cross_package_imports()
        if target_package not in table[package]
    }
    assert sorted(set(EXCEPTIONS) - used) == []


def test_the_table_has_no_cycle():
    # the everything-importing rows (experiments, profiling) aside, the
    # depends-on column orders the packages
    table = {p: deps - {p} for p, deps in layer_table().items() if deps != PACKAGES}
    placed = set()
    while len(placed) < len(table):
        ready = {p for p, deps in table.items() if p not in placed and deps <= placed}
        assert ready, f"cycle among {sorted(set(table) - placed)}"
        placed |= ready


def test_simulation_imports_neither_data_nor_serving():
    edges = [
        f"{module} -> {target}"
        for module, package, target, target_package, _ in cross_package_imports()
        if package == "simulation" and target_package in {"data", "serving"}
    ]
    assert edges == []
    # and at run time: importing the simulator loads neither package
    code = (
        "import sys, repro.simulation; "
        "print(sorted(m for m in sys.modules if m.startswith(('repro.data', 'repro.serving'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert out.stdout.strip() == "[]"


def test_the_scan_sees_function_level_imports():
    lazy = {
        (module, target)
        for module, _, target, _, is_lazy in cross_package_imports()
        if is_lazy
    }
    assert ("repro.serving.server", "repro.learning.promote") in lazy
