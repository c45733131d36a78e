"""The package as a whole: its public names, and no unused imports."""

import ast
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import walkhash
from walkhash import (ConfigError, LatticePoint, WalkConfig, affine_step_for,
                      chi_square_uniform, derive_key, generate_walk,
                      map_templates, run_avalanche, sample_affine_step,
                      serialize_trajectory, step)
from walkhash.rng import Stream

SRC = Path(walkhash.__file__).resolve().parent

# the names `from walkhash import *` binds
PUBLIC = {
    "AffineStep", "BitMatrix", "BoundsExceeded", "ChiSquareMode",
    "ChiSquareResult", "ConfigError", "DegenerateInput", "DimensionEstimate",
    "GeneratorFailure", "GeometryReport", "HashAlg", "InsufficientData",
    "InvalidPosition", "LatticePoint", "MapMode", "PerturbMode",
    "PerturbationSpec", "Trajectory", "TrialRecord", "WalkConfig",
    "WalkhashError", "__version__", "affine_step_for", "box_count",
    "chi_square_uniform", "default_box_sizes", "default_positions",
    "derive_key", "digest_bytes", "estimate_point_dimension",
    "generate_walk", "geometry", "lattice_bound", "linear_fit",
    "lower_regularized_gamma", "map_templates", "perturb", "run_avalanche",
    "sample_affine_step", "serialize_trajectory", "shannon_entropy", "step",
    "trial_seed", "trial_summary", "upper_regularized_gamma",
}


def test_public_names_are_pinned():
    assert set(walkhash.__all__) == PUBLIC
    assert len(walkhash.__all__) == len(PUBLIC)
    assert not [name for name in walkhash.__all__
                if isinstance(getattr(walkhash, name), ModuleType)]
    namespace = {}
    exec("from walkhash import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


# Each once ended in an AttributeError, or an OverflowError for "zz",
# with no argument named.
@pytest.mark.parametrize("call, args, error, name", [
    (generate_walk, ({"n": 3},), TypeError, "config"),
    (affine_step_for, (None, 1), TypeError, "config"),
    (affine_step_for, (WalkConfig(), "zz"), ConfigError, "i"),
    (map_templates, ("fixed-set",), TypeError, "config"),
    (run_avalanche, (None, ["sha3-512"], (5,), 1), TypeError, "config"),
    (serialize_trajectory, (np.zeros((3, 2), dtype=np.int64),), TypeError,
     "t"),
    (derive_key, ([(0, 0), (1, 1)], "sha3-512"), TypeError, "t"),
    (chi_square_uniform, (np.ones((4, 8), dtype=bool),), TypeError,
     "matrix"),
    (step, ((1, 2), affine_step_for(WalkConfig(), 1)), TypeError, "x"),
    (step, (LatticePoint(1, 2), 0), TypeError, "s"),
    (sample_affine_step, (None, WalkConfig()), TypeError, "stream"),
    (sample_affine_step, (Stream(1), None), TypeError, "config"),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_wrong_argument_is_named(call, args, error, name):
    with pytest.raises(error, match=f"^{name} must be "):
        call(*args)


def _read_names(tree):
    """Every name a module reads: as a name, the base of an attribute, or
    inside a quoted annotation."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) \
                        and isinstance(part.value, str):
                    names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


def _unused_imports(path):
    """(line, name) of each name path imports but never reads, unless its
    import line carries `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read \
                        and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_no_module_imports_a_name_it_does_not_read():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_import_scan_finds_what_it_must(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from math import (exp,\n"
        "                  log)  # noqa: F401\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "from json import dumps\n"
        "def f(x: 'Fraction') -> int:\n"
        "    dumps = None\n"
        "    return np.sum(x)\n")
    assert sorted(_unused_imports(module)) == [
        (2, "os"), (3, "os"), (4, "Sequence"), (5, "exp"), (10, "dumps")]
