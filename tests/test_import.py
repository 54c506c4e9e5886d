"""What `import powersdim` loads: numpy only at the first computation, and
under the CLI with one OpenBLAS thread unless the caller chose a count."""

import os
import subprocess
import sys
from importlib.util import find_spec
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
    assert out.split() == ["61", "False", "True"]


def test_import_powersdim_loads_no_dataclasses_inspect_or_numpy():
    # what the import adds: a module some site hook loads first is not counted
    out = fresh("import sys\n"
                "before = set(sys.modules)\n"
                "import powersdim\n"
                "added = set(sys.modules) - before\n"
                "print('powersdim' in added, *sorted({'dataclasses', 'inspect', 'numpy'} & added))\n")
    assert out.split() == ["True"]


def test_import_powersdim_cli_loads_no_dataclasses():
    out = fresh("import sys\n"
                "before = set(sys.modules)\n"
                "import powersdim.cli\n"
                "print('powersdim.cli' in sys.modules, 'dataclasses' in set(sys.modules) - before)\n")
    assert out.split() == ["True", "False"]


def test_removed_names_stay_removed():
    """Names dropped from the API, each because another one already says what it
    said, are absent from the package, its layers and the classes that held them."""
    for name in ["element_order", "is_connected", "NotAPrimeDivisor", "EmptyFamily",
                 "CyclicSubgroup", "PrimeFactorization", "sigma", "CliqueResult"]:
        assert name not in powersdim.__all__, name
        assert not hasattr(powersdim, name), name
        assert not any(hasattr(getattr(powersdim, layer), name)
                       for layer in ("groups", "graphs", "clique", "sdim")), name
    owners = [(powersdim.Graph, ["has_edge", "degree", "closed_mask", "complement", "from_matrix"]),
              (powersdim.build_group("Z2"), ["inverse", "spec"]),
              (powersdim.ChainAnalysis, ["chain_generators", "subgroup_index", "s_i", "f_i"])]
    for owner, names in owners:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert find_spec("powersdim.corpus") is None  # CORPUS_SPECS lives in sdim


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


# run(): the layers whose source has run, read through vars(), which runs none
RUN = ("import sys, powersdim\n"
       "LAYERS = ('groups', 'graphs', 'clique', 'sdim')\n"
       "def run():\n"
       "    return [n for n in LAYERS if '__all__' in vars(sys.modules['powersdim.' + n])]\n")


def test_import_powersdim_registers_every_layer_and_runs_none():
    out = fresh(RUN + "print(*(getattr(powersdim, n) is sys.modules['powersdim.' + n]\n"
                      "        for n in LAYERS), run() == [])\n")
    assert out.split() == ["True"] * 5


def test_a_name_runs_only_the_layers_up_to_its_own_and_is_bound():
    out = fresh(RUN + "print(powersdim.build_group.__module__, *run())\n"
                      "print('build_group' in vars(powersdim), 'sdim_group' in vars(powersdim))\n"
                      "powersdim.sdim_group\n"
                      "print(*run())\n")
    assert out.splitlines() == ["powersdim.groups groups", "True False",
                                "groups graphs clique sdim"]


def test_a_missing_name_raises_and_a_dunder_probe_runs_nothing():
    out = fresh(RUN + "print(hasattr(powersdim, '__wrapped__'), len(run()))\n"
                      "print(hasattr(powersdim, 'no_such_name'), len(run()))\n")
    assert out.split() == ["False", "0", "False", "4"]


def test_a_layer_whose_source_raises_runs_again_on_the_next_read():
    out = fresh(RUN + "layer = sys.modules['powersdim.clique']\n"
                      "loader = layer.__spec__.loader\n"
                      "def fail(module):\n"
                      "    raise OSError('source unreadable')\n"
                      "loader.exec_module = fail\n"
                      "try:\n"
                      "    powersdim.max_clique\n"
                      "except OSError as exc:\n"
                      "    print(repr(exc))\n"
                      "print('__all__' in vars(layer), *run())\n"
                      "del loader.exec_module\n"
                      "print(powersdim.max_clique is layer.max_clique, *run())\n")
    assert out.splitlines() == ["OSError('source unreadable')", "False groups graphs",
                                "True groups graphs clique"]


def test_the_cli_runs_its_layers_before_numpy():
    out = fresh("import sys, powersdim.cli\n"
                "order = list(sys.modules)\n"
                "print(order.index('powersdim._numpy') < order.index('numpy'))\n")
    assert out.split() == ["True"]


def test_dir_lists_every_public_name():
    out = fresh("import powersdim\n"
                "names = dir(powersdim)\n"
                "print(names == sorted(names), set(powersdim.__all__) <= set(names))\n")
    assert out.split() == ["True", "True"]


# eight threads, released at once, each first-read a name of some layer
THREADED = """
import sys, threading
sys.setswitchinterval(1e-6)
import powersdim
names = [("groups", "build_group"), ("graphs", "power_graph"), ("clique", "max_clique"),
         ("sdim", "sdim_group"), ("sdim", "CORPUS_SPECS"), ("sdim", "SdimResult"),
         ("graphs", "Graph"), ("groups", "Group")]
barrier = threading.Barrier(len(names), timeout=60)
errors = []
def read(layer, name):
    barrier.wait()
    try:
        {read}
    except BaseException as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=read, args=pair) for pair in names]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(errors, any(t.is_alive() for t in threads), powersdim.graphs.Group is powersdim.groups.Group)
"""


@pytest.mark.parametrize("read", [
    "getattr(powersdim, name)",
    "exec(f'from powersdim.{layer} import {name}', {})",
], ids=["package", "from-layer"])
def test_first_reads_from_many_threads_wait_for_the_layer(read):
    assert fresh(THREADED.replace("{read}", read)).split() == ["[]", "False", "True"]
