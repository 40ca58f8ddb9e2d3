"""Cold start: no repro command may pay for importing scipy.

scipy.optimize is most of a cold ``import repro.cli``, and only the
cross-input scaling model (``repro.model.scaling.fit_series``) calls it,
so it is imported inside that function.  Each case runs in a fresh
interpreter, because this test process may already hold scipy.
"""

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: Last stdout line of every probe: the scipy modules the process holds.
_PRINT_SCIPY = ("print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.split('.')[0] == 'scipy')))\n")

#: Runs ``repro.cli.main(argv)``, or only imports it when argv is empty.
_CLI_PROBE = ("import json, sys\n"
              "from repro.cli import main\n"
              "if sys.argv[1:]:\n"
              "    main(sys.argv[1:])\n") + _PRINT_SCIPY


def _loaded_scipy(tmp_path, code, argv=()):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    result = subprocess.run([sys.executable, "-c", code, *argv],
                            cwd=str(tmp_path), env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["list"],
    ["analyze", "fig1", "--no-cache", "--xml", "fig1.xml",
     "--html", "fig1.html"],
    ["analyze", "triad", "--engine", "static", "--closed-form",
     "--no-cache"],
    ["sweep", "sweep3d", "--mesh", "4", "5", "--jobs", "1"],
], ids=["import", "list", "analyze-reports", "analyze-closed-form",
        "sweep"])
def test_command_never_imports_scipy(tmp_path, argv):
    assert _loaded_scipy(tmp_path, _CLI_PROBE, argv) == []


def test_scaling_fit_imports_scipy(tmp_path):
    """The positive control: the one caller does load the solver, so the
    probe above cannot pass by failing to see scipy."""
    code = ("import json, sys\n"
            "from repro.model.scaling import fit_series\n"
            "fit_series([8, 16, 32], [64.0, 256.0, 1024.0])\n"
            ) + _PRINT_SCIPY
    assert "scipy.optimize" in _loaded_scipy(tmp_path, code)
