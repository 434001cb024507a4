"""Exact classification of block metric spaces built from order towers.

The public names are resolved on first use (PEP 562): ``import roeclass``
loads no layer, and reading a name imports the one layer that defines it and
caches the name here, so a command loads only the layers it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# layer module -> the public names it defines
_LAYERS = {
    "blockspace": (
        "BlockSpace",
        "FiniteMetricSpace",
        "Partition",
        "asdim_zero_profile",
        "components",
        "embed_into_nonneg_integers",
        "r_components",
    ),
    "equivalence": (
        "LevelCheck",
        "TowerBijection",
        "VerificationReport",
        "build_back_and_forth",
        "interleave_towers",
        "verify_bijective_coarse_equivalence",
    ),
    "errors": (
        "DepthExhausted",
        "MalformedInput",
        "NotBlockDiagonal",
        "NotEquivalent",
        "NotProjection",
        "PreconditionViolation",
        "RoeclassError",
        "UnsupportedEntries",
    ),
    "ktheory": (
        "FiniteK0",
        "K0Class",
        "alpha_iterate",
        "h_membership",
        "k0_add",
        "k0_equal",
        "k0_iso_exists",
        "k0_neg",
        "k0_positive",
        "k0_scale",
        "k0_sub",
        "k0_unit",
        "k0_zero",
        "transport_class",
        "unit_divide",
    ),
    "roeops": (
        "BlockTuple",
        "PropagationOperator",
        "add",
        "adjoint",
        "block_decompose",
        "compose",
        "conjugate_by_bijection",
        "connecting_map",
        "k0_class_of_projection",
        "mvn_partial_isometry",
        "propagation",
        "recompose",
        "trace_vector",
    ),
    "supernatural": (
        "INFINITE",
        "SupernaturalNumber",
        "Tower",
        "bijectively_coarsely_equivalent",
        "coarsely_equivalent",
        "obstruction_witness",
        "sn_divides",
        "supernatural_of_tower",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
