"""Double-circulant codes over prime fields, with three constructions:
Sidon-set designs with a majority-vote decoder, cyclic-code blocks with a
two-stage decoder, and Wozencraft-style quotient-field codes decoded by
undoing the fold.
"""

from .algebra import (
    BinaryExtensionField,
    PrimeField,
    QuotientFieldContext,
    build_gf2m,
    cyclic_mul,
    find_wozencraft_k,
    is_primitive_root,
    poly_divmod,
    poly_gcd,
    poly_irreducible,
    poly_mul,
    poly_reverse,
    quotient_mul,
    reduce_mod_pk,
)
from .code_core import (
    FAIL,
    Decoded,
    GeneratorMatrixCode,
    OracleBudgetExceeded,
    balanced_weight,
    bounded_distance_decode,
    brute_force_balanced_profile,
    brute_force_distance,
    capability,
    dual_basis,
    hamming_distance,
    hamming_weight,
    is_codeword,
    iter_codewords,
    nearest_codeword,
    split_balanced_weight,
)
from .cyc_dc import (
    CyclicDCCode,
    build_rm_dual_dc,
    cyc_dc_decode,
    cyc_dc_encode,
    d_balanced_check,
)
from .cyclic import (
    CyclicCode,
    dual_code,
    enumerate_cyclic_codes,
    factor_x_n_minus_1,
    generator_from_spanning_set,
    max_irreducible_factor_degree,
)
from .design_dc import (
    CirculantMatrix,
    DesignProfile,
    IdentityOverCirculants,
    SidonDCCode,
    build_sidon_dc,
    column_majority,
    dc_encode,
    design_decode,
    design_profile,
    majority_decode,
)
from .reed_muller import (
    RMCode,
    build_punctured_rm,
    punctured_rm_decode,
    reed_decode,
    reed_majority,
    rm_code,
    rm_encode,
    shortened_dual_rm_decode,
)
from .sidon import SidonSet, sidon_erdos_turan, sidon_for_length, verify_sidon
from .weldon import (
    TCirculantCode,
    WeldonCode,
    build_wozencraft,
    fold_word,
    lift_word,
    tcirculant_from_sidon_dc,
    weldon_decode,
    weldon_encode,
    weldon_membership,
)

__version__ = "0.1.0"
