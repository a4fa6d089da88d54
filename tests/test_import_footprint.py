"""Which modules importing the package and running a command load.

numpy is imported by ``rtfactor.confint`` only, and the acceptance suite by
``verify`` only, so the exact-arithmetic commands start without either; the
RT move tables are built with the first representation used, not at import;
and a builtin representation stores its sparse rows only.
Each check runs in a fresh interpreter: this test session has long since
imported both.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("numpy", "rtfactor.acceptance", "rtfactor.confint")


def fresh(statements: str, report: str):
    """Run ``statements`` in a new interpreter with src/ first on the path;
    return the JSON value of the expression ``report`` afterwards."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        statements,
        "import json",
        f"print(json.dumps({report}))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(statements: str) -> set:
    """The modules of WATCHED that are loaded after ``statements``."""
    return set(fresh(statements,
                     f"[m for m in {WATCHED!r} if m in sys.modules]"))


def test_package_import_loads_neither_numpy_nor_acceptance():
    loaded = loaded_after("import rtfactor, rtfactor.rt, rtfactor.cli")
    assert not loaded & {"numpy", "rtfactor.acceptance"}


def test_exact_command_loads_neither_numpy_nor_acceptance():
    loaded = loaded_after(
        "from rtfactor import cli\n"
        "assert cli.main(['invariant', '--link', 'trefoil', '--algebra', "
        "'sl2', '--jones']) == 0")
    assert not loaded & {"numpy", "rtfactor.acceptance"}


def test_linking_command_loads_the_curve_integrals():
    loaded = loaded_after(
        "from rtfactor import cli\n"
        "assert cli.main(['linking', '--curves', 'hopf']) == 0")
    assert "rtfactor.confint" in loaded


def test_package_import_builds_no_move_table():
    # The RT move tables are built, and checked, with the first ribbon
    # representation a command asks for, so an import or a bracket adds no
    # table work to a cold start.
    reps = ("sys.modules['rtfactor.quantum_group']"
            ".sln_fundamental_ribbon.cache_info().currsize")
    assert fresh("import rtfactor, rtfactor.rt, rtfactor.kauffman", reps) == 0
    assert fresh("from rtfactor import cli\n"
                 "assert cli.main(['bracket', '--link', 'trefoil']) == 0",
                 reps) == 0
    assert fresh("from rtfactor import cli\n"
                 "assert cli.main(['invariant', '--link', 'trefoil', "
                 "'--algebra', 'sl2', '--framed']) == 0", reps) == 1


def test_builtin_representation_builds_no_dense_matrix():
    # The dense view would hold 3 * 1024^2 Fractions, the rows 3 * 1024 dicts.
    assert fresh("from rtfactor.lie import builtin\n"
                 "_, rep = builtin('sl2_irrep(1023)')",
                 "'matrices' in rep.__dict__") is False
