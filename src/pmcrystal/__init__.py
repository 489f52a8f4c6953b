"""Product monomial crystals, Demazure truncations, and generalised Schur
modules."""

from .cartan import RootDatum, build_root_datum
from .crystal import CrystalGraph, closure, highest_weights, to_dot
from .monomial import Monomial, column_stats, e_op, f_op, make_monomial
from .product import (PointMultiset, ProductCrystal, decompose, fundamental_keys,
                      multiset, multiset_from_pairs, product_codec, product_crystal,
                      product_graph, s_label)
from .truncation import (BuildPlan, ThresholdSet, build_plan, char_by_plan,
                         full_character, truncate, up_closure)
from .typea import (flagged_schur_char, lr_skew_expand, restrict_coeffs,
                    skew_normalise, specht_decompose_bruteforce, stable_bound,
                    stable_coeffs)
from .weightring import (GroupAlgebraElement, apply_word, demazure_pi, e,
                         irreducible_character, weyl_decompose)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
