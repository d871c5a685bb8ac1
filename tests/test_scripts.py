"""Smoke runs of the standalone drivers under scripts/ at tiny sizes.

Each script's ``main(argv)`` runs in-process, so a library signature change
that breaks a script fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ntkalign.dataio import load_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_width_convergence_exits_cleanly(tmp_path):
    argv = ["--widths", "4", "8", "--seeds", "1", "--steps", "2", "--n", "3", "--m", "2"]
    assert load_script("width_convergence").main(argv + ["--out-dir", str(tmp_path)]) == 0
    for table in ("mc_error.csv", "drift.csv"):
        values = load_csv(tmp_path / table)
        assert values.shape == (2, 3)  # one row per width
        assert np.all(np.isfinite(values))


# (script, flag, bad value, the reason argparse gives): every integer flag
# parses through cli._count or cli._size, and --eta through cli._positive
BAD_FLAGS = [
    *(("width_convergence", flag, "0", "expected an integer >= 1, got '0'")
      for flag in ("--widths", "--seeds", "--n", "--m", "--k", "--steps")),
    ("width_convergence", "--seed", "-1", "expected an integer >= 0, got '-1'"),
    ("width_convergence", "--eta", "nan", "value must be positive and finite, got nan"),
    ("width_convergence", "--eta", "0", "value must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize("name, flag, value, reason", BAD_FLAGS,
                         ids=[f"{n}{f}={v}" for n, f, v, _ in BAD_FLAGS])
def test_script_rejects_a_bad_flag_value(capsys, tmp_path, name, flag, value, reason):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main([flag, value, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: {reason}")
    assert not (tmp_path / "out").exists()
