"""The package surface: the public names, resolved on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mublines

#: the public names and the submodule each was first exported from
PUBLIC = {
    "abelian": ("Character", "FiniteAbelianGroup", "GroupElement", "RelativeDifferenceSet",
                "builtin_rds", "char_eval", "characters", "rds_verify"),
    "constructions": ("BlockPairSpec", "MubFamily", "ScalingSpec", "c1_magnitudes", "c1_search",
                      "construction2_family", "construction3_d4_extension",
                      "construction3_pair", "construction3_solve", "hoggar_tensor_orbit",
                      "l_block", "mubs_from_rds", "theorem46_predicate"),
    "framecore": ("CVector", "GramReport", "LineSet", "apply_equivalence", "gram_analyze",
                  "lines_equal", "max_angle", "mub_bound", "special_bound_f",
                  "verify_mubs"),
    "scalars": ("Scalar",),
    "weylheisenberg": ("Fiducial", "fiducial_d4", "normalizer_check",
                       "wh_generators", "wh_orbit", "zauner_unitary"),
}
NAMES = {name for names in PUBLIC.values() for name in names} | set(PUBLIC)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_the_43_public_names():
    assert len(NAMES) == 43
    assert set(mublines.__all__) == NAMES
    assert len(mublines.__all__) == 43


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(mublines, name) is getattr(importlib.import_module(f"mublines.{module}"), name)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_submodule_name_is_the_submodule(module):
    assert getattr(mublines, module) is importlib.import_module(f"mublines.{module}")


def test_dir_and_star_import_list_every_name():
    assert NAMES <= set(dir(mublines))
    namespace = {}
    exec("from mublines import *", namespace)
    assert NAMES <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mublines.no_such_name


def test_importing_the_package_loads_no_numpy():
    code = "import sys, mublines; sys.exit('numpy' in sys.modules or len(mublines.__all__) != 43)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
