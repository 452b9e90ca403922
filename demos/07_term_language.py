"""The term language: parse, evaluate against an environment, and hunt for
counterexamples from the command line.

Run: python3 demos/07_term_language.py
"""

import json

from multirel.cli import main
from multirel.dsl import evaluate, parse, print_term
from multirel.mrel import MRel
from multirel.rel import Carrier

X = Carrier(2)
env = {
    "X": X,
    "Y": X,
    "R": MRel.from_pairs(X, X, [(0, 0b11)]),
}

print("Terms use ASCII operators; named operations use call syntax:")
for text in ("a(L(R))", "di(R) * S", "(R * S) * T", "down(R) == R * down(eta)"):
    print(f"  {text!r:35s} parses to {print_term(parse(text))!r}")

print("\nEvaluation returns relations, multirelations or booleans:")
print("  R * R       ->", evaluate("R * R", env))
print("  a(R)        ->", sorted(evaluate("a(R)", env).pairs()))
print("  di(R) <d= R ->", evaluate("di(R) <d= R", env))

print("\nConstants infer their carriers from context where unambiguous:")
print("  1 * R == R  ->", evaluate("1 * R == R", env))
print("  up(R) == R ; Om(Y) ->", evaluate("up(R) == R ; Om(Y)", env))

print("\nThe same machinery drives the command line; the counterexample")
print("hunt below rediscovers the strictness of the approximation:")
rc = main([
    "find-cex",
    "--lhs", "a(R * S)",
    "--rhs", "a(R) ; a(S)",
    "--rel", "==",
    "--sizes", "2,2",
])
print("  exit code:", rc, "(1 = witness found)")
