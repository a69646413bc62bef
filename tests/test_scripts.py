"""Smoke tests: the analysis scripts in ``scripts/`` run in-process."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_main(name: str, capsys) -> str:
    """Import ``scripts/<name>.py``, call its ``main()`` and return stdout."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
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
