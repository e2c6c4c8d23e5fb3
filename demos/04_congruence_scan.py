"""Scan congruence families over parameter grids.

Theorem-status families must hold everywhere; conjecture-status families are
scanned with the same machinery but report separately, and one of them is
numerically false at its smallest parameter, witness included.
"""

from overq import (
    RunConfig,
    SeriesProvider,
    check_family,
    count_overpartition_tuples,
    default_grid,
    family_registry,
)

registry = family_registry()
provider = SeriesProvider()  # shared cache: GFs step between tuple sizes

config = RunConfig(t_max=16, alpha_max=1, i_max=2, j_max=2, n_max=60)

for key in (
    "pbar-8n+7-mod32",
    "pbar-2^{2a+3}n+5*2^{2a}-mod4",
    "opt-3n+2-mod-3^{i+1}2^{j+2}",
    "opt-8n+4-mod-2^{2i+4}",
):
    family = registry[key]
    result = check_family(family, default_grid(family, config), config.n_max,
                          provider=provider)
    print(f"{key:32} [{family.status}] -> {result.verdict:16} "
          f"({result.params_tried} points, {result.coeffs_checked} residues)")
    for witness in result.witnesses[:2]:
        print(f"    witness {witness.params_text()} n={witness.n}: "
              f"{witness.value} != {witness.expected} (mod {witness.modulus})")

# The conjectured 8n+4 divisibility already fails at the smallest point:
# the odd-part pair count of 4 is 32, which 2^6 does not divide.
print("\nodd-part pairs of 4:", 32, "- and 32 mod 64 =", 32 % 64)

# One family carries a residue prediction instead of plain divisibility:
# along 8n+1 the single-tuple counts leave residue 2 mod 4 exactly at
# triangular n.  Compare the verifier's verdict with the raw counts.
family = registry["pbar-2^{2a+3}n+2^{2a}-mod4-tri"]
result = check_family(family, [family.point({"t": 1, "a": 0})], 12, provider=provider)
counts = count_overpartition_tuples(1, 8 * 12 + 1)
residues = [(n, counts.count(8 * n + 1) % 4) for n in range(13)]
print("\ntriangular-residue family:", result.verdict)
print("residues of count(8n+1) mod 4:", residues)
