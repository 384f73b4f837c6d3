"""ringlab: finite-ring computational algebra with extractable witnesses.

Builds small rings as explicit operation tables, computes their right-ideal
lattices, classifies elements (regular, unit-regular, clean, special clean)
and rings (summand-sum property, internal cancellation, stable range one,
...), and runs a constructive decomposition algorithm whose every step is
recorded in a replayable trace.
"""

__version__ = "0.1.0"

from .catalog import (CatalogEntry, default_catalog, format_element, load_catalog,
                      parse_element, parse_ring_spec, verify_entry_tags)
from .classify import (SUITE_NAMES, Verdict, direct_sum_cancellation, has_stable_range_1,
                       idem_condition_annihilator, idem_condition_right_sided,
                       idem_sr_condition, is_abelian, is_ic, is_sip, is_ssp,
                       product_regular_condition, ring_profile, ring_unit_regular,
                       right_sided_certificate, theorem_suite, unimodular_matrix)
from .decompose import (ConstructionTrace, idempotent_witness_set, solve_unimodular,
                        special_clean_decompose, unique_special_clean_abelian,
                        verify_trace)
from .elements import (CleanDecomposition, classify_element, is_clean,
                       regular_elements, regular_witness, special_clean_witnesses,
                       unit_inverse_from_special_clean, unit_regular_witness)
from .errors import (CapacityError, ConstructionAbort, HypothesisViolation,
                     InvariantViolation, LiteralParseError, RingMismatchError,
                     RinglabError, SearchBudgetExceeded, SpecParseError)
from .ideals import (ModuleHom, RightIdeal, all_right_ideals,
                     common_complement_idempotent, direct_complements, graph_module,
                     hom_search, ideal_intersect, ideal_sum, is_direct_pair, iter_homs,
                     principal, reconstruct_common_complement, right_annihilator,
                     summand_idempotent, summands_isomorphic)
from .rings import (DEFAULT_SIZE_CAP, FiniteRing, element_from_obj,
                    element_repr, element_to_obj, make_matrix_ring, make_opposite,
                    make_product, make_triangular_ring, make_zmod)
