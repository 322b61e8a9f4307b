"""Exact Artin-Wedderburn decomposition of semisimple group algebras over
finite fields, with unit-group reporting.

The analytic pipeline derives the block structure of F_q[G] from conjugacy
data alone; an independent brute-force path splits the regular algebra into
its primitive central idempotents and reads the same structure off traces
and explicit ranks.  The flagship example is SL(3,2) with |G| = 168.
"""

from .charkit import deleted_module_check, inner_product, perm_character
from .cyclo import cyclotomic_partition
from .errors import ModularCaseError
from .ffield import (
    FieldElement,
    FieldSpec,
    MatrixFq,
    Polynomial,
    factor,
    is_prime,
    make_field,
    minpoly,
)
from .oracle import AlgebraElement, CentralSplit, split_center, verify_split
from .perm import (
    BUILTIN_GROUPS,
    ConjClass,
    FiniteGroup,
    Permutation,
    builtin_s5,
    builtin_sl32_on_p2f2,
    builtin_sl32_s8,
    generate,
    load_group,
    parse_cycles,
    parse_group_text,
    power_class,
)
from .units import (
    ReferenceRow,
    gl_order,
    sl32_expected_row,
    unit_group,
)
from .wedder import (
    SolverReport,
    analytic_decomposition,
    forced_components,
    is_sl32_class_data,
    sl32_type,
    solve,
    splitting_field_check,
)

__version__ = "0.1.0"
