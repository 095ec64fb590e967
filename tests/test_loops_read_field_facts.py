"""The loop modules read the fields' facts and never test a field's class.

Division, completion, elimination, Hilbert counts and leading terms branch
only on what a field states (``integral``, ``trivially_valued``, ``modulus``,
``is_field``, ``bits``), so a new field kind is a change to ``fields.py``
alone.  The element form the loops compute on is owned by ``polynomials.py``,
so a new form is a change to that module alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LOOP_MODULES = ["division.py", "groebner.py", "hilbert.py", "linalg.py", "weights.py"]
FIELD_CLASSES = {"RationalField", "QpField", "RationalFunctionField", "ModPmRing",
                 "PrimeField", "RatFunc"}


@pytest.mark.parametrize("name", LOOP_MODULES)
def test_loop_module_tests_no_field_class(name):
    path = ROOT / "src" / "valgb" / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported = {alias.name for alias in node.names}
            assert not imported & FIELD_CLASSES, f"{name} imports {imported & FIELD_CLASSES}"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("fields") for alias in node.names), name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("isinstance", "hasattr"), (
                f"{name}:{node.lineno} calls {node.func.id}"
            )


def test_hilbert_module_imports_no_loop_module():
    # groebner imports the count module, so it must never import back
    path = ROOT / "src" / "valgb" / "hilbert.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
    assert not imported & {"groebner", "lifting", "division"}, imported


def test_only_polynomials_reads_or_makes_the_integer_form():
    # the loop's element form has one owner: polynomials.py builds every
    # integer-backed polynomial and alone names the integer form's memo, and
    # the modules that compute on loop forms do not fork on the field's
    # ``integral`` fact to read or rebuild them
    forking = {"groebner.py", "lifting.py", "cardinality.py", "bounds.py"}
    found = []
    for path in sorted((ROOT / "src" / "valgb").glob("*.py")):
        name = path.name
        if name == "polynomials.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                    node.func.id == "_IntegerBacked"):
                found.append(f"{name}:{node.lineno} builds _IntegerBacked")
            elif isinstance(node, ast.Constant) and node.value == "integer-terms":
                found.append(f"{name}:{node.lineno} names the integer-terms memo")
            elif (isinstance(node, ast.Attribute) and node.attr == "integral"
                  and name in forking):
                found.append(f"{name}:{node.lineno} reads .integral")
    assert found == []
