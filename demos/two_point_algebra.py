"""Walkthrough: classifying an algebra morphism through its dual numbers.

The running example is evaluation at the origin out of Q[x]/(x^2 - x),
the coordinate ring of a two-point space.  Its kernel is generated by x,
so the map cannot be monic, yet the idempotent 1 - x is a witness that
the surjection splits linearly.
"""

from tangentcat.classify import classify_calg
from tangentcat.cli import human_report
from tangentcat.groebner import ring_map_kernel
from tangentcat.polycore import QQ, Polynomial, context, poly_parse
from tangentcat.presentations import (
    dual_numbers,
    free_algebra,
    linear_section_exists,
    morphism,
    present,
)

X = context("x")
A = present(QQ, ("x",), (poly_parse("x^2 - x", X, QQ),))
K = free_algebra(QQ, ())
f = morphism(A, K, (Polynomial.zero(K.context, QQ),))

print("source:", "Q[x]/(x^2 - x)")
print("target:", "Q")
print()

# The tangent functor adjoins a square-zero direction e.
TA = dual_numbers(A)
x = Polynomial.variable(TA.context, QQ, 0)
e = Polynomial.variable(TA.context, QQ, 1)
square = TA.reduce((x + e) ** 2)
# a + a'e splits into a (drop every term with e) and a' (differentiate in e)
drop_e = [*range(len(A.context)), None]
base = square.rename(A.context, drop_e)
tangent = square.partial(len(A.context)).rename(A.context, drop_e)
print(f"(x + e)^2 reduces to base {base} with tangent part {tangent}")
print()

kernel = ring_map_kernel(f)
print("kernel generators:", ", ".join(str(k) for k in kernel) or "(none)")

sec = linear_section_exists(f)
print("linear section witness:", sec.witness, f"({sec.reason})")
print()

print(human_report(classify_calg(f, name="point")))
