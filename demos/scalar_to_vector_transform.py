"""
Trading multiplication for vector addition
==========================================

Over a fixed prime basis, a natural number is its exponent vector and a
product is a componentwise sum. That turns circuits mixing complement with
multiplication, where no scalar cutoff applies, into additive vector
circuits that clamp fine.
"""

from setcircuits import (
    INF,
    NotRepresentable,
    decide,
    parse_circuit,
    serialize_circuit,
    to_vector_gcdfree,
    to_vector_primefact,
)

scalar = parse_circuit(
    """\
circuit v1
gate 1 input 6
gate 2 input 10
gate 3 union 1 2
gate 4 mul 3 3
output 4
"""
)

# The gcd-free route factors only the labels that occur, not every prime.
# The basis comes from the labels alone, so one image serves every query.
vc, query, emap = to_vector_gcdfree(scalar, 36)
print("gcd-free basis:", emap.base)
print("36 becomes:", query)
print(serialize_circuit(vc))

for b in (36, 60, 100, 90, 42):
    try:
        print(f"{b} in output: {decide(vc, emap.apply(b)).member}")
    except NotRepresentable:
        # products and exact quotients never leave the basis: not a member
        print(f"{b} in output: False (no exponents over the basis)")
print()

# Zero has no factorization; it rides along as the absorbing point inf.
zero_circ = parse_circuit("circuit v1\ngate 1 input 0\ngate 2 mul 1 1\noutput 2\n")
vc0, q0, _ = to_vector_gcdfree(zero_circ, 0)
print("query 0 maps to:", "inf" if q0 is INF else q0)
assert decide(vc0, q0).member

# The prime-factor route keys one slot per label prime and pools every other
# prime in one spill slot, which is what lets complement gates come along.
# The labels here are 0 and 1, so the spill slot is the only coordinate.
primes = parse_circuit(
    """\
circuit v1
gate 1 input 0
gate 2 input 1
gate 3 union 1 2
gate 4 comp 3
gate 5 mul 4 4
gate 6 comp 5
gate 7 inter 6 4
output 7
"""
)
vp, qp, pmap = to_vector_primefact(primes, 9)
print()
print(f"prime-factor basis from the labels: {pmap.base}, dimension {vp.dim}")
print("9 becomes:", qp)
for b in (9, 97, 2310):
    print(f"{b} prime?", decide(vp, pmap.apply(b)).member)
