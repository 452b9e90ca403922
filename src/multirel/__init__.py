"""Executable finite-model algebra of binary multirelations.

Relations are packed bit matrices, multirelations map each source element
to a canonical sorted set of subset masks.  On top of the core operations
sit the power-allegory layer (membership, power transpose, approximation,
image functor, monad constants), Peleg/Kleisli liftings and compositions,
the determinisation maps, seeded instance generators, a registry of
executable laws with counterexample shrinking, a term language and a CLI.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ENUM_CAP,
    MASK_CAP,
    POW_CAP,
    CapExceeded,
    EnumerationTooLarge,
    IdentityShapeMismatch,
    MaskTooWide,
    MultirelError,
    PowersetTooLarge,
    ShapeMismatch,
    TermSyntaxError,
    UnboundVariable,
    UnknownLaw,
)
from .rel import (
    Carrier,
    Rel,
    RelFlags,
    bits,
    classify_rel,
    domain,
    full_mask,
    is_subrel,
    pow_carrier,
    rel_bool,
    rel_compose,
    rel_const,
    rel_converse,
    residual,
    symmetric_quotient,
)
from .mrel import (
    MRel,
    PropertyFlags,
    classify_mrel,
    closure,
    inner_bool,
    inner_dual,
    is_submrel,
    mrel_bool,
    mrel_const,
    mrel_to_rel,
    preorder,
    rel_to_mrel,
    split_terminal,
)
from .power import (
    alpha,
    ccomp,
    eta,
    image_functor,
    member_rel,
    mu,
    omega,
    power_transpose,
)
from .peleg import (
    d_subrelations,
    kleisli_compose,
    kleisli_lift,
    odot,
    peleg_compose,
    peleg_lift,
)
from .determinise import cofission, cofusion, fission, fusion
from .generate import GenSpec, SplitMix64, instances, mix64, space_size
from .dsl import evaluate, parse, print_term
from .laws import Law, LawReport, Slot, check
from .registry import law_by_id, registry

# every public name but the submodules, which ``import multirel.<name>`` reaches
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]

__version__ = "0.1.0"
