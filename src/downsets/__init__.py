"""Finite posets, down-set counting and the small Dedekind numbers.

The names of poset, engine, boolean and errors load with the package.  Those
of the middle-region routes (methods) and the class catalogue (isoclasses)
load on first access (PEP 562), so a command that only counts, such as
`downsets count FILE`, never imports or compiles them.  boolean loads with
the package on purpose: the function boolean shares its name with its
submodule, and a first import of the submodule later would rebind
downsets.boolean to the module.
"""

from .boolean import (
    BooleanContext,
    DedekindLadder,
    StandardRun,
    boolean,
    dedekind_standard,
    dedekind_via_theorem2,
    level_mask,
    sub_poset,
    theorem2_residual_shape,
)
from .engine import (
    chain_product_count,
    containment_counts,
    count_downsets,
    count_via_decomposition,
    decompose,
    enumerate_downsets,
    phi_forward,
    phi_inverse,
)
from .errors import (
    CapacityError,
    CycleError,
    DomainError,
    DownsetError,
    NotADownSet,
    ParseError,
    StructureError,
)
from .poset import (
    Poset,
    antichain,
    chain,
    direct_sum,
    from_covers,
    poset_from_text,
    poset_to_text,
    product,
)

# the public names of each lazily loaded submodule
_LAZY = {
    "isoclasses": (
        "IsoClassRecord",
        "are_isomorphic",
        "canonical_form",
        "representation_system",
        "type_code",
    ),
    "methods": (
        "MethodReport",
        "QSplit",
        "bmm5_gamma",
        "bmm5_iso",
        "bmm5_nu",
        "bmm6_iso",
        "bmm6_lemma2_reference",
        "bmm6_mu",
        "build_qsplit",
        "build_sigma_precomp",
        "class_parameters",
        "classify_inner_type",
        "e_of",
        "lemma1_check",
        "middle_counts",
        "sigma_fast",
        "sigma_reference",
        "t_of",
        "table7",
    ),
}

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + [name for module, names in _LAZY.items() for name in (module, *names)]
)


def __getattr__(name):
    'import the lazy submodule that defines name and bind its public names here'
    for module, names in _LAZY.items():
        if name == module or name in names:
            import importlib

            loaded = importlib.import_module("." + module, __name__)
            for attr in names:
                globals().setdefault(attr, getattr(loaded, attr))
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))

__version__ = "1.0.0"
