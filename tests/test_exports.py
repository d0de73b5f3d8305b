import ast
import subprocess
import sys
from pathlib import Path

import scpoly

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in scpoly.__all__ if not hasattr(scpoly, name)]
    assert missing == []
    assert len(set(scpoly.__all__)) == len(scpoly.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from scpoly import *", namespace)
    assert set(scpoly.__all__) <= namespace.keys()


def test_import_needs_numpy_only():
    code = ("import sys, scpoly; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC_DIR,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_one_module_decides_what_is_a_number():
    # errors.py holds the number rule; a module importing the number ABCs
    # is writing a second one.
    importers = sorted(
        path.name for path in (SRC_DIR / "scpoly").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "numbers" in ([a.name for a in node.names]
                          if isinstance(node, ast.Import) else [node.module]))
    assert importers == ["errors.py"]
    assert not hasattr(scpoly.geometry, "_finite_points")


def test_every_exported_failure_class_is_raised_somewhere():
    # A failure class that no code constructs is a label nothing can
    # carry. The three family bases are there to be caught.
    built = {node.func.id
             for path in (SRC_DIR / "scpoly").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    bases = {"ScpolyError", "ValidationError", "NumericalError"}
    failures = {name for name in scpoly.__all__
                if isinstance(getattr(scpoly, name), type)
                and issubclass(getattr(scpoly, name), scpoly.ScpolyError)}
    assert len(failures) > len(bases)
    assert sorted(failures - bases - built) == []
