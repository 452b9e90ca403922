"""Determinisation: fusion and fission approximate a multirelation by an
outer or inner deterministic one; the co-maps are their conjugates.

Run: python3 demos/05_determinisation.py
"""

from multirel import (
    Carrier,
    MRel,
    alpha,
    classify_mrel,
    cofission,
    cofusion,
    evaluate,
    fission,
    fusion,
    preorder,
)

X = Carrier(2, names=("a", "b"))
R = MRel.from_pairs(X, X, [(0, 0b01), (0, 0b11)])
print("R offers a the alternatives {a} and {a,b}; b is unrelated:")
print("  R =", R)

print("\nFusion merges each row into one set, fission splits the reachable")
print("elements into singletons; both represent the approximation alpha(R):")
print("  alpha(R)   =", sorted(alpha(R).pairs()))
print("  fusion(R)  =", fusion(R), " (note the invented (b,{}) pair)")
print("  fission(R) =", fission(R))

print("\nBoth are Hoare-order adjoints of the identity embeddings:")
print("  R below fusion(R):", preorder("hoare", R, fusion(R)))
print("  fission(R) below R:", preorder("hoare", fission(R), R))

print("\nThe co-maps intersect instead of uniting (empty rows get the")
print("whole carrier, the empty intersection):")
print("  cofusion(R)  =", cofusion(R))
print("  cofission(R) =", cofission(R))

# the term language names fusion ``do`` and fission ``di``
env = {"R": R}
print("\nClosed representations pack fusion and fission into one value,")
print("the closures of the fusion:")
for text in ("down(do(R))", "up(do(R))"):
    print(f"  {text:11s} =", evaluate(text, env))

flags = classify_mrel(R)
print("\nThe fixpoints of the two maps are exactly the outer and inner")
print("deterministic multirelations:")
print("  do(R) == R:", evaluate("do(R) == R", env),
      " outer deterministic:", flags.outer_deterministic)
print("  di(R) == R:", evaluate("di(R) == R", env),
      " inner deterministic:", flags.inner_deterministic)
