"""Multirelations and their inner structure: inner boolean operations,
closures, refinement preorders and the classification flags.

Run: python3 demos/03_multirelations.py
"""

from multirel import (
    Carrier,
    MRel,
    classify_mrel,
    closure,
    inner_bool,
    inner_dual,
    mrel_const,
    preorder,
    split_terminal,
)

X = Carrier(2, names=("a", "b"))
Y = Carrier(2, names=("p", "q"))

R = MRel.from_pairs(X, Y, [(0, 0b01), (0, 0b10), (1, 0b00)])
print("R offers a the alternatives {p} and {q}, and b only the empty set:")
print("  R =", R)

S = MRel.from_pairs(X, Y, [(0, 0b11), (1, 0b01)])
print("\nInner union/intersection combine alternatives pointwise:")
print("  R icup S =", inner_bool("icup", R, S))
print("  R icap S =", inner_bool("icap", R, S))
print("  inner complement of R =", inner_bool("icomp", R))
print("  dual of R =", inner_dual(R))

print("\nClosures pad rows with super- or subsets:")
for mode in ("up", "down", "convex"):
    print(f"  {mode + '(R)':9s} =", closure(mode, R))

T = MRel.from_pairs(X, Y, [(0, 0b11), (1, 0b01)])
print("\nRefinement preorders (Smyth, Hoare, Egli-Milner):")
print("  R below T (smyth):", preorder("smyth", R, T))
print("  R below T (hoare):", preorder("hoare", R, T))
print("  R below T (egli_milner):", preorder("egli_milner", R, T))

nu_part, tau_part = split_terminal(R)
print("\nThe terminal split isolates the empty-set pairs:")
print("  non-terminal:", nu_part)
print("  terminal:    ", tau_part)

print("\nClassification flags of some shapes:")
for name, m in (
    ("R", R),
    ("atoms", mrel_const("atoms", X, Y)),
    ("inner unit", mrel_const("inner_unit", X, Y)),
):
    print(f"  {name:11s}", classify_mrel(m))
