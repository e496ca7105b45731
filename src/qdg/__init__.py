"""Exact symbolic kernel for the box algebra attached to the q-Onsager
algebra and the positive part of the quantum affine sl2, with a
fixture-driven identity verification suite."""

__version__ = "0.1.0"

from .qcoeff import DEFAULT_RING, LaurentPoly, LaurentRing, NotInvertibleError, qint
from .boxtilde import (
    BoxElem,
    NormalMono,
    central_gen,
    generator,
    module_action_oracle,
    multiply,
    oracle_as_box,
    reduce_word,
    rho,
    s_element,
    scale_auto,
    specialize_central,
)
from .freealg import dim_uplus, rank_over_fraction_field, relation_span, serre_elements
from .gradings import bidegree_components, phi_n, pi, sharp_lift
from .identities import CheckResult
from .expr import ParseError, eval_text, evaluate, parse, render
