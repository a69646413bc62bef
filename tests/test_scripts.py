"""Smoke tests: the analysis scripts in ``scripts/`` and the README's
library sketch run in-process."""

import ast
import importlib.util
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load(name: str):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(name: str, capsys) -> str:
    """Call the ``main()`` of ``scripts/<name>.py`` and return stdout."""
    load(name).main()
    return capsys.readouterr().out


def test_boundary_check_prints_closed_form_lines(capsys):
    out = run_main("boundary_check", capsys)
    for kind in (2, 4):
        line = re.search(rf"^m{kind}: (\d+) boundary points, "
                         r"worst \|dW\|/W = (\S+)$", out, re.M)
        # the relative bound of acceptance criterion 3
        assert line and int(line[1]) > 0 and float(line[2]) < 1e-3
    assert re.search(r"^  m4: \{'1dof/2dof': ", out, re.M)


def test_fem_convergence_prints_modal_tables(capsys):
    out = run_main("fem_convergence", capsys)
    assert "n_el= 32: omega1 = " in out
    assert "10-DOF model (alpha=0.5, beta=0.0021):" in out


def test_run_pipeline_writes_six_manifests(tmp_path, monkeypatch):
    # at --n 1000 the last population holds over 100 m2 and m3 particles,
    # the stochastic and mixture maps' default minimum
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--out", str(tmp_path),
                                      "--n", "1000"])
    assert load("run_pipeline").main() == 0
    assert len(list(tmp_path.glob("*/manifest.json"))) == 6


def test_readme_library_sketch_runs(capsys):
    """The README's "Library sketch" block runs as it stands, so the
    documented API cannot drift from the package."""
    readme = ROOT / "README.md"
    block = re.search(r"^## Library sketch\n\n```python\n(.*?)^```$",
                      readme.read_text(encoding="utf-8"), re.M | re.S)
    namespace = {}
    exec(compile(block[1], str(readme), "exec"), namespace)
    probs = ast.literal_eval(capsys.readouterr().out)
    assert len(probs) == 4 and math.isclose(sum(probs), 1.0)
    assert namespace["grid"].stable.shape == (80, 80)
