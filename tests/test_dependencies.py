"""The declared dependencies cover every import, and the heavy ones load lazily.

``repro.core`` goes further: it imports no numpy at all, so selection runs
on a numpy-free interpreter.

Both checks run in a fresh interpreter, so modules this test session has
already imported cannot hide a missing import.  Neither ``tomllib`` nor
``sys.stdlib_module_names`` exists on Python 3.9, so ``pyproject.toml`` is
read with a regex and "third party" means "found in a site-packages
directory".
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules every simulation, bench and service run imports; the trace
#: statistics, seed sensitivity and gateway ablation must not drag scipy
#: or networkx into them.
CORE_ENTRY_POINTS = (
    "repro.cli",
    "repro.dtn.simulator",
    "repro.experiments.config",
    "repro.experiments.runner",
    "repro.routing.registry",
    "repro.service.server",
)


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _requirement_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement.strip()).group(0)


def declared_dependencies() -> list:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1)
    return [_requirement_name(item) for item in re.findall(r'"([^"]+)"', block)]


def _top_level_name(entry: str, is_dir: bool):
    name = entry if is_dir else entry.split(".")[0]
    return name if name.isidentifier() else None


def allowed_top_level_names() -> set:
    """Import names of the declared distributions and what they require."""
    pending, seen, names = list(declared_dependencies()), set(), set()
    while pending:
        dist_name = pending.pop()
        if dist_name.lower() in seen:
            continue
        seen.add(dist_name.lower())
        try:
            dist = metadata.distribution(dist_name)
        except metadata.PackageNotFoundError:
            continue  # an unmet environment marker; nothing to allow
        for path in dist.files or ():
            name = _top_level_name(path.parts[0], len(path.parts) > 1)
            if name:
                names.add(name)
        for requirement in dist.requires or ():
            if "extra ==" not in requirement.partition(";")[2]:
                pending.append(_requirement_name(requirement))
    return names


def site_packages_top_level_names() -> set:
    names = set()
    for entry in sys.path:
        if os.path.basename(entry) not in ("site-packages", "dist-packages"):
            continue
        if not os.path.isdir(entry):
            continue
        for child in os.listdir(entry):
            name = _top_level_name(child, os.path.isdir(os.path.join(entry, child)))
            if name:
                names.add(name)
    return names


def test_declared_dependencies_are_installed():
    for name in declared_dependencies():
        metadata.distribution(name)  # raises PackageNotFoundError


def test_every_module_imports_with_only_declared_dependencies():
    blocked = site_packages_top_level_names() - allowed_top_level_names() - {"repro"}
    result = _run_fresh(
        """
        import importlib
        import json
        import sys
        from pathlib import Path

        BLOCKED = set(json.loads(sys.argv[1]))


        class BlockUndeclared:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in BLOCKED:
                    raise ModuleNotFoundError(f"undeclared dependency {name!r}")
                return None


        sys.meta_path.insert(0, BlockUndeclared())
        import repro

        package_dir = Path(repro.__file__).parent
        failures = []
        for path in sorted(package_dir.rglob("*.py")):
            parts = path.relative_to(package_dir.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
            try:
                importlib.import_module(module)
            except Exception as exc:
                failures.append(f"{module}: {type(exc).__name__}: {exc}")
        print("\\n".join(failures))
        """,
        json.dumps(sorted(blocked)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", result.stdout


def test_scipy_and_networkx_load_only_where_used():
    result = _run_fresh(
        """
        import importlib
        import json
        import sys

        for module in sys.argv[1:]:
            importlib.import_module(module)
        print(json.dumps([m for m in ("scipy", "networkx") if m in sys.modules]))
        """,
        *CORE_ENTRY_POINTS,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def _imported_modules(tree: ast.AST):
    """Every absolute module an ``import`` anywhere in *tree* names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_core_imports_no_numpy():
    offenders = []
    for path in sorted((SRC / "repro" / "core").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(m.partition(".")[0] == "numpy" for m in _imported_modules(tree)):
            offenders.append(path.relative_to(SRC).as_posix())
    assert offenders == []
