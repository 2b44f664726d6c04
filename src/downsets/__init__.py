"""Finite posets, down-set counting and the small Dedekind numbers."""

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
    DecompositionTerm,
    DownSetFamily,
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
    MissingInput,
    NotADownSet,
    ParseError,
    ShapeError,
    StructureError,
    TraceMismatch,
)
from .isoclasses import (
    IsoClassRecord,
    are_isomorphic,
    canonical_form,
    representation_system,
    strip_isolated,
    type_code,
)
from .methods import (
    MethodReport,
    QSplit,
    bmm5_gamma,
    bmm5_iso,
    bmm5_nu,
    bmm6_iso,
    bmm6_lemma2_reference,
    bmm6_mu,
    build_qsplit,
    build_sigma_precomp,
    build_T0_T1,
    class_parameters,
    classify_inner_type,
    e_of,
    lemma1_check,
    middle_counts,
    s_of,
    sigma_fast,
    sigma_reference,
    t_of,
    table7,
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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
