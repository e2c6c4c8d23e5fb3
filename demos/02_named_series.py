"""The named series: Euler products, eta quotients, the cubic theta sum, and
the two counting generating functions, cross-checked against direct counts.
"""

from overq import (
    EXACT,
    EtaQuotient,
    borwein_a,
    count_opt_tuples,
    count_overpartition_tuples,
    eta,
    euler_product,
    expand_eta_quotient,
    opt_gf,
    overpartition_gf,
    theta_component,
)

# Euler products expand sparsely: the only nonzero coefficients of f1 sit at
# generalized pentagonal numbers 1, 2, 5, 7, 12, 15, ... with signs.
f1 = euler_product(1, EXACT, 20)
print("f1 support:", [(n, c) for n, c in enumerate(f1.coeffs) if c])

# Eta quotients parse from a compact text form and round-trip through str().
quotient = eta("f2^3 * f1^-2 * f4^-1")
print("parsed:", quotient, "->", EtaQuotient.parse(str(quotient)) == quotient)

# f2/f1^2 generates overpartition counts; the independent counting recurrence
# (which never touches series arithmetic) must agree.
series = expand_eta_quotient(eta("f2 * f1^-2"), EXACT, 10)
counts = count_overpartition_tuples(1, 9)
print("overpartitions, series:", list(series.coeffs))
print("overpartitions, counts:", list(counts.counts))
assert list(series.coeffs) == list(counts.counts)

# The cubic theta sum counts lattice points of j^2 + jk + k^2 = n.  Each
# nonzero count is a multiple of 6 and the residue class 2 mod 3 is empty.
a_series = borwein_a(EXACT, 16)
print("lattice counts:", list(a_series.coeffs))

# The dissection components combine the lattice sum with eta quotients, e.g.
# h = A * f1, whose q-coefficient is 6 - 1 = 5.
print("component h:", theta_component("h", EXACT, 6))

# Tuple generating functions, checked against the counting oracle.
for t in (2, 6):
    gf = overpartition_gf(t, EXACT, 8)
    assert list(gf.coeffs) == list(count_overpartition_tuples(t, 7).counts)
    print(f"{t}-tuples:     ", list(gf.coeffs))
gf = opt_gf(6, EXACT, 8)
assert list(gf.coeffs) == list(count_opt_tuples(6, 7).counts)
print("odd-part 6-tuples:", list(gf.coeffs))
