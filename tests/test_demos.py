"""The narrative demos run end to end against the current API."""
import ast
import hashlib
import re
import runpy
from pathlib import Path

import pytest

import vbsenergy

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, recorded before tradeoff_curve returned columns.
STDOUT_SHA256 = {
    "01_power_model": "ba1a5de0d9ced276a31d3471beebaa5a325bc63d6b71e5979e04560a148cfc12",
    "02_energy_delay_tradeoff": "e2c2a5d4ebd114bc04cedb136c24add830e8b1a0a77ae34d842e951bc42deeba",
    "03_vbs_vs_cbs": "2733a86b840db8bbb77bf0ec7a8468971ffb640da22707d76b2cad0361869056",
    "04_joint_optimization": "a68de0e086c586c3b00a31ee40ce1eaadc1804d2c29eb7e7017eaedca1ff4684",
    "05_simulation_check": "8d4ad2258bb782b6c4abce46e5b57242838d0b81587a78e459ab7ecbf1a32b76",
}


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]


def test_top_level_exports_exactly_the_readme_example_imports():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "vbsenergy"
                for alias in node.names}
    assert imported
    assert set(vbsenergy.__all__) == imported


def test_every_name_a_package_module_imports_is_used():
    # A name imported and never read is a dead import. A statement that keeps
    # one on purpose (a name re-exported or wrapped from outside) says so with
    # "# noqa: F401"; a name in __all__ counts as read.
    unused = []
    for path in sorted((ROOT / "src" / "vbsenergy").glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "__all__" for elt in node.value.elts}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "# noqa: F401" not in lines[node.lineno - 1]):
                unused += [f"{path.name}: {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read]
    assert unused == []
