"""Exact symbolic kernel for the box algebra attached to the q-Onsager
algebra and the positive part of the quantum affine sl2, with a
fixture-driven identity verification suite.

Importing the package loads no submodule.  The names below are re-exported
from their defining modules and resolved on first access, so `qdg.BoxElem`
and `from qdg import dim_uplus` work while each `qdg` command compiles only
the modules it runs (see `qdg.cli`)."""

__version__ = "0.1.0"

# each re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("DEFAULT_RING", "LaurentPoly", "LaurentRing", "NotInvertibleError", "qint"), "qcoeff"),
    **dict.fromkeys(
        (
            "BoxElem", "NormalMono", "central_gen", "generator", "module_action_oracle", "multiply",
            "oracle_as_box", "reduce_word", "rho", "s_element", "scale_auto", "specialize_central",
        ),
        "boxtilde",
    ),
    **dict.fromkeys(("dim_uplus", "rank_over_fraction_field", "relation_span", "serre_elements"), "freealg"),
    **dict.fromkeys(("bidegree_components", "phi_n", "pi", "sharp_lift"), "gradings"),
    "CheckResult": "identities",
    **dict.fromkeys(("ParseError", "eval_text", "evaluate", "parse", "render"), "expr"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
