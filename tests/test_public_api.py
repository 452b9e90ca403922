"""The names ``from multirel import *`` gives.  A name leaves or joins the
public API only on purpose: update this list in the same change, and say
so in CHANGES.md."""

import multirel

# ``__all__`` is every public name of the package but its submodules.
PUBLIC = [
    "CapExceeded", "Carrier", "ENUM_CAP", "EnumerationTooLarge", "Env",
    "FixpointReport", "GenSpec", "IdentityShapeMismatch", "Law", "LawReport",
    "MASK_CAP", "MRel", "MaskTooWide", "MultirelError", "POW_CAP",
    "PowersetTooLarge", "PropertyFlags", "Rel", "RelFlags", "ShapeMismatch", "Slot",
    "SplitMix64", "TermSyntaxError", "UnboundVariable", "UnknownLaw", "alpha",
    "bits", "ccomp", "check", "classify_mrel", "classify_rel", "closed_repr",
    "closure", "cofission", "cofusion", "convex", "d_subrelations", "domain", "down",
    "eta", "evaluate", "fission", "fixpoint_class", "full_mask", "fusion",
    "has_element_rel", "icap", "icomp", "icup", "image_functor", "inner_bool",
    "inner_dual", "inner_union_family", "instances", "is_submrel", "is_subrel",
    "kleisli_compose", "kleisli_lift", "law_by_id", "member_rel", "mix64",
    "mrel_bool", "mrel_const", "mrel_to_rel", "mu", "nu", "odot", "omega",
    "parse", "peleg_compose", "peleg_compose_oracle", "peleg_lift",
    "pow_carrier", "power_transpose", "preorder", "print_term", "registry",
    "rel_bool", "rel_compose", "rel_const", "rel_converse", "rel_to_mrel",
    "residual", "space_size", "split_terminal", "symmetric_quotient", "tau", "up",
]


def test_public_names_are_pinned():
    assert sorted(multirel.__all__) == PUBLIC
