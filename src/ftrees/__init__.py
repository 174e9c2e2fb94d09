"""Thompson's group F inside the Cuntz-algebra word calculus.

Exact element arithmetic and normal forms, the coset action on diagonal
projections, the trace characterization of the orbit of 1 with a
constructive realizer, finite-level models of the tree compactification,
and linear-independence certificates for the permutation representation.
"""

from .boundary import (
    PairTruncation, TreeTruncation, act_truncated, embed, is_realizable, non_isolation_witness,
    stabilizes, window_requirement,
)
from .dyadic import Dyadic
from .elements import (
    GroupElement, NotInF, NotUnitary, Side, TargetNotARefinement, Term, abelianization, height,
    in_commutator_subgroup, inverse, is_cyclic_order_preserving, is_order_preserving, multiply,
    multiply_terms, parity_split, reduce, refine, validate_unitary,
)
from .generators import (
    NormalFormWord, equals, from_normal_form, gen_x, generator_ball, parse_normal_form,
    to_normal_form,
)
from .omega import (
    ONE, ZERO, DiagonalProjection, InternalSearchExhausted, NotInOmega2, act, complement,
    coset_invariant, d_tau, h2_member, join, meet, omega2_member, orbit, orbit_levels, realize,
    trace,
)
from .representation import (
    FormalVector, IndependenceCertificate, SearchExhausted, apply, independence_certificate,
    separating_point,
)
from .words import CompleteCode, Ordering, common_refinement, is_prefix, kraft_sum, lex_compare

__all__ = [
    "CompleteCode",
    "DiagonalProjection",
    "Dyadic",
    "FormalVector",
    "GroupElement",
    "IndependenceCertificate",
    "InternalSearchExhausted",
    "NormalFormWord",
    "NotInF",
    "NotInOmega2",
    "NotUnitary",
    "ONE",
    "Ordering",
    "PairTruncation",
    "SearchExhausted",
    "Side",
    "TargetNotARefinement",
    "Term",
    "TreeTruncation",
    "ZERO",
    "abelianization",
    "act",
    "act_truncated",
    "apply",
    "common_refinement",
    "complement",
    "coset_invariant",
    "d_tau",
    "embed",
    "equals",
    "from_normal_form",
    "gen_x",
    "generator_ball",
    "h2_member",
    "height",
    "in_commutator_subgroup",
    "independence_certificate",
    "inverse",
    "is_cyclic_order_preserving",
    "is_order_preserving",
    "is_prefix",
    "is_realizable",
    "join",
    "kraft_sum",
    "lex_compare",
    "meet",
    "multiply",
    "multiply_terms",
    "non_isolation_witness",
    "omega2_member",
    "orbit",
    "orbit_levels",
    "parity_split",
    "parse_normal_form",
    "realize",
    "reduce",
    "refine",
    "separating_point",
    "stabilizes",
    "to_normal_form",
    "trace",
    "validate_unitary",
    "window_requirement",
]
