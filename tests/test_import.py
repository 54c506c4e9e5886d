"""What `import powersdim` loads: numpy only at the first computation, and
under the CLI with one OpenBLAS thread unless the caller chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import powersdim
from powersdim._numpy import np


def fresh(code: str, **env) -> str:
    """stdout of `code` in a new interpreter that finds this powersdim,
    with OPENBLAS_NUM_THREADS unset unless given in env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(powersdim.__file__).resolve().parent.parent)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_the_package_binds_every_name_without_numpy():
    out = fresh("import sys, powersdim\n"
                "from powersdim import *\n"
                "print(len(powersdim.__all__), 'numpy' in sys.modules)\n"
                "powersdim.build_group('Z6')\n"
                "print('numpy' in sys.modules)\n")
    assert out.split() == ["67", "False", "True"]


def test_import_powersdim_loads_no_dataclasses_inspect_or_numpy():
    # what the import adds: a module some site hook loads first is not counted
    out = fresh("import sys\n"
                "before = set(sys.modules)\n"
                "import powersdim\n"
                "added = set(sys.modules) - before\n"
                "print('powersdim' in added, *sorted({'dataclasses', 'inspect', 'numpy'} & added))\n")
    assert out.split() == ["True"]


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_the_cli_starts_numpy_with_one_blas_thread_unless_told(preset, threads):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    out = fresh("import os, sys, powersdim.cli\n"
                "print('numpy' in sys.modules,\n"
                "      os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n", **env)
    assert out.split() == ["True", threads]


def test_the_numpy_stand_in_keeps_each_name_it_serves():
    import numpy

    assert np.packbits is numpy.packbits
    assert vars(np)["packbits"] is numpy.packbits  # later reads skip __getattr__
    with pytest.raises(AttributeError):
        np.no_such_name
