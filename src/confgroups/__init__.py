"""Fundamental groups of affine configuration-space strata.

Word problems for the braid-family groups via Garside normal form, a generic
finitely-presented-group engine (Todd-Coxeter, Smith normal form), the
(k, i, n) classification with ordered/unordered flavors, numeric braid and
winding extraction from sampled loops, and an end-to-end verification report.
"""

from .braids import (
    BraidError,
    BraidWord,
    GarsideForm,
    Permutation,
    PureGeneratorId,
    d_word,
    delta_word,
    equal_in_braid,
    exponent_sum,
    format_form,
    format_word,
    garside_normal_form,
    inverse,
    multiply,
    parse_pure_word,
    parse_word,
    permutation_image,
    power,
    pure_generator,
    pure_generator_order,
    pure_word_to_braid,
    spell_form,
)
from .fpgroups import (
    AbelianInvariants,
    CosetTable,
    HomReport,
    IntegerMatrix,
    Presentation,
    PresentationError,
    Word,
    abelianization,
    builtin_presentation,
    format_abstract_word,
    format_presentation,
    inverse_word,
    parse_abstract_word,
    parse_presentation,
    relator_matrix,
    smith_normal_form,
    todd_coxeter,
    verify_homomorphism,
)
from .groups import (
    ORDERED,
    UNORDERED,
    AlphabetError,
    CentralExtElement,
    EmptyStratumError,
    GroupDescriptor,
    GroupElement,
    GroupError,
    case_statement,
    central_element,
    central_ext_relators,
    classify,
    descriptor_for,
    descriptor_relators,
    element_from_word,
    equal_in_group,
    geometric_to_artin_word,
    identity_word,
    sigma_prime,
    star_transposition,
    tau,
)
from .loops import (
    ConfigLoop,
    DegenerateSpanError,
    LoopError,
    SpanReport,
    TieError,
    concatenate,
    det_winding,
    extract_braid,
    loop_from_json_obj,
    loop_to_json_obj,
    make_gamma_loop,
    make_h_loop,
    reverse,
    span_dimension,
    span_reports,
)
from .verify import ClaimResult, VerificationReport, paper_verification_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
