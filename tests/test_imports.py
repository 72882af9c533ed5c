"""Every name a coarse2fine module imports is used in that module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coarse2fine"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements (other than
    `from __future__`) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\n"
                          "from typing import Optional, Mapping\n"
                          "x: Optional[int] = np.pi\n") == ["Mapping", "os"]


def exp_out_calls(source: str) -> int:
    """Calls of np.exp (or numpy.exp) that write into a given array: an
    `out=` keyword, or `out` passed as the second positional argument."""
    return sum(
        1 for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "exp"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and (len(node.args) > 1 or any(k.arg == "out" for k in node.keywords)))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "numerics.py"),
                         ids=lambda p: p.name)
def test_softmax_exponentiates_only_in_numerics(path):
    """The in-place softmax is written once, as numerics.softmax_core."""
    assert exp_out_calls(path.read_text()) == 0


def test_detects_an_in_place_exp():
    assert exp_out_calls("np.exp(x, out=x)\nnumpy.exp(a, b)\nnp.exp(x)\n"
                         "y = np.exp(x - m) / s\n") == 2


def numpy_calls(source: str, name: str) -> int:
    """Calls of np.<name> (or numpy.<name>)."""
    return sum(
        1 for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy"))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "numerics.py"),
                         ids=lambda p: p.name)
def test_grouping_by_label_only_in_numerics(path):
    """Indices are grouped by label once, as numerics.group_by_label."""
    assert numpy_calls(path.read_text(), "argsort") == 0


def test_detects_an_argsort():
    assert numpy_calls("np.argsort(y, kind='stable')\nnumpy.argsort(a)\n"
                       "x.argsort()\nnp.sort(y)\n", "argsort") == 2


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_np_unique(path):
    """np.unique imports numpy.ma on first use (about 1 MiB, resident for
    the rest of the process); the package groups by bincount and
    numerics.equal_size_groups instead."""
    assert numpy_calls(path.read_text(), "unique") == 0


def test_detects_an_np_unique():
    assert numpy_calls("np.unique(y)\nnumpy.unique(a, return_inverse=True)\n"
                       "set(y)\nnp.union1d(a, b)\n", "unique") == 2


def test_coinsP_train_leaves_numpy_ma_unimported():
    """A k-means refresh, the proxy term and the epoch metrics of a coinsP
    run import nothing that pulls numpy.ma in."""
    code = ("import sys\n"
            "from coarse2fine.data import gen_blob_dataset\n"
            "from coarse2fine.trainer import TrainConfig, train\n"
            "d = gen_blob_dataset(2, 2, 3, 4, seed=0)\n"
            "cfg = TrainConfig(objective='coinsP', epochs=2, ip_start_epoch=0,"
            " P=4, lr=0.003, hidden=[8], embed_dim=4, batch_size=8)\n"
            "assert train(cfg, d)[2] is not None\n"
            "print('numpy.ma' in sys.modules)\n")
    assert run_python(code) == "False\n"


def run_python(code: str) -> str:
    """The standard output of `code` run in a fresh interpreter that
    imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_two_thread_passes_leave_concurrent_futures_unimported():
    """The row-block passes, a coins train's epoch metrics among them,
    start a plain threading.Thread: importing concurrent.futures alone holds
    about 768 KiB for the rest of the process."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from coarse2fine import numerics\n"
            "from coarse2fine.data import gen_blob_dataset\n"
            "from coarse2fine.evaluate import recall_at_k\n"
            "from coarse2fine.theory import measure_constants\n"
            "from coarse2fine.trainer import TrainConfig, train\n"
            "numerics._threads = lambda n, width: 2\n"
            "rng = np.random.default_rng(0)\n"
            "emb, W = rng.standard_normal((300, 4)), rng.standard_normal((4, 300))\n"
            "recall_at_k(emb, np.arange(300) % 50, [1])\n"
            "measure_constants(emb, W[:, :3], W, np.arange(300) % 3,"
            " np.arange(300))\n"
            "train(TrainConfig(objective='coins', epochs=1, lr=0.01,"
            " hidden=[8], embed_dim=4, batch_size=64),"
            " gen_blob_dataset(2, 2, 75, 4, seed=0))\n"
            "print('concurrent.futures' in sys.modules)\n")
    assert run_python(code) == "False\n"


# checks that only the tests and the acceptance gate call
GATE_CHECKS = {"grad_check", "param_vector", "set_param_vector",
               "gradient_vector", "verify_lemma1"}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the given modules that no
    expression in any of them reads, by name or as an attribute."""
    defined, read = set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        defined.update(node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_no_unread_definitions():
    """Every top-level function or class of the package is called or named
    somewhere in it, but for the checks the acceptance gate runs."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert [name for name in unread_definitions(sources)
            if name not in GATE_CHECKS] == []


def test_detects_an_unread_definition():
    assert unread_definitions({
        "a.py": "def used(): pass\ndef dead(): pass\nclass Kept: pass\n"
                "class Gone: pass\n",
        "b.py": "from a import used\nimport a\nx = used() or a.Kept\n"
                "a.dead = None\n"}) == ["Gone", "dead"]
