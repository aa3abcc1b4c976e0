import ast
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import quenchsim


def test_star_import_exports_all():
    # a stale name in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from quenchsim import *", namespace)
    assert len(set(quenchsim.__all__)) == len(quenchsim.__all__)
    for name in quenchsim.__all__:
        assert namespace[name] is getattr(quenchsim, name)


def unused_imports(source):
    """(line, name) of each imported name the module never reads; __all__ reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_package():
    modules = Path(quenchsim.__file__).parent.glob("*.py")
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert "bounds.py" in found
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "from typing import Callable, Sequence\nfrom .a import b as c, d\n"
        "x: Sequence[int] = os.path.join(d)\n__all__ = ['c']\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Callable")]


def test_import_leaves_quadrature_unloaded():
    # every command starts on numpy alone, and concurrent.futures is
    # imported only where a worker pool starts
    env = dict(os.environ, PYTHONPATH=str(Path(quenchsim.__file__).parents[1]))
    code = (
        "import sys, quenchsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, futures_loaded = proc.stdout.rsplit(maxsplit=1)
    assert ast.literal_eval(scipy_modules) == []
    assert futures_loaded == "False"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # every command also runs on numpy alone: with any scipy import made to
    # raise, the five commands exit 0 and no scipy module is loaded
    env = dict(os.environ, PYTHONPATH=str(Path(quenchsim.__file__).parents[1]))
    script = Path(__file__).with_name("scipy_blocked.py")
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] == dict.fromkeys(
        ["simulate", "sweep", "eigen", "bounds", "validate"], 0
    )
    assert result["scipy_modules"] == []


def test_bound_params_hold_no_model_constant():
    # the model constants have one owner: BoundParams reads them from its params
    model = {f.name for f in fields(quenchsim.ModelParams)}
    assert {f.name for f in fields(quenchsim.BoundParams)} & model == set()
