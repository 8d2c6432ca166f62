"""Constructions and verification of complex equiangular lines and MUBs.

The public names are resolved on first access (PEP 562), so that importing
the package loads no submodule and no numpy; `mublines.gram_analyze` imports
framecore then, and `mublines.framecore` is the submodule itself.
"""

import importlib

#: submodule -> the public names it defines
_PUBLIC = {
    "abelian": ("Character", "FiniteAbelianGroup", "GroupElement", "RelativeDifferenceSet",
                "builtin_rds", "char_eval", "characters", "rds_verify"),
    "constructions": ("BlockPairSpec", "MubFamily", "ScalingSpec", "c1_magnitudes", "c1_search",
                      "construction2_family", "construction3_d4_extension",
                      "construction3_pair", "construction3_solve", "hoggar_tensor_orbit",
                      "l_block", "mubs_from_rds", "theorem46_predicate"),
    "framecore": ("CVector", "GramReport", "LineSet", "apply_equivalence", "gram_analyze",
                  "lines_equal", "verify_mubs"),
    "scalars": ("Scalar", "max_angle", "mub_bound", "special_bound_f"),
    "weylheisenberg": ("Fiducial", "fiducial_d4", "normalizer_check",
                       "wh_generators", "wh_orbit", "zauner_unitary"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:  # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:  # read from the submodule every time, never copied here
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
