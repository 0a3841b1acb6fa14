"""The README's examples run as written: its Python blocks, and its JSON
config as an l1 sweep that needs no scipy.optimize."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import decoreg

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_l1_sweep_imports_no_scipy_optimize(tmp_path):
    # importing scipy.optimize takes about half a second of a command's
    # wall time, and the README's l1 sweep needs nothing from it
    config = tmp_path / "scenario.json"
    config.write_text(re.search(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M).group(1))
    argv = ["stability-sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from decoreg.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(decoreg.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "False"
