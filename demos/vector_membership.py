"""
Sets of vectors and the point at infinity
=========================================

Vector circuits work over tuples of naturals extended with a single
absorbing point inf. Subtraction replaces multiplication, inf + x stays
inf, and x - inf does not exist. Clamping happens per coordinate, so a set
can saturate in one axis while staying pinned in another.
"""

from setcircuits import INF, decide, eval_clamped_vector, parse_circuit, search_member

# comp of {inf} is every finite vector; adding (1,1) shifts the whole grid.
circuit = parse_circuit(
    """\
vcircuit v1 dim 2
gate 1 input inf
gate 2 comp 1
gate 3 input 1,1
gate 4 add 2 3
output 4
"""
)

reps, out = eval_clamped_vector(circuit)
print(f"output cutoff {out.cutoff}, saturated corner in: {out.sat}, inf in: {out.inf}")

# (x, y) belongs iff both coordinates are at least 1. The axes never join
# the set no matter how far out you go, which is exactly what the
# coordinate-wise window records.
big = out.cutoff + 20
for x in [(0, 0), (1, 1), (big, big), (0, big), (big, 0), INF]:
    label = "inf" if x is INF else x
    print(f"{label}: {out.member(x)}")
assert out.member((big, big)) and not out.member((0, big))
print()

# The top-down search unfolds the set definitions query by query and shares
# no set representation with the clamped engine; it agrees on every point of
# a window reaching two past the output cutoff.
width = out.cutoff + 2
for a in range(width):
    for b in range(width):
        assert search_member(circuit, (a, b)) == out.member((a, b)), (a, b)
assert search_member(circuit, INF) == out.member(INF)
print(f"top-down search ({width}x{width} window and inf) matches the clamped engine")

# Subtraction needs witnesses beyond the result's own window. The engine
# looks past the cutoff so that (0,0) correctly appears in A - A.
diff = parse_circuit(
    """\
vcircuit v1 dim 2
gate 1 input 3,5
gate 2 sub 1 1
output 2
"""
)
print("(3,5) - (3,5) contains (0,0):", decide(diff, (0, 0)).member)
print("inf in the difference:", decide(diff, INF).member)
