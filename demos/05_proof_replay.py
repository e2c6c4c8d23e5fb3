"""Replay the arithmetic that powers the congruence proofs.

Two kinds of artifact are recomputed: the binomial coefficient tables that
drive the mod-16 and mod-32 expansions, and the dissection steps that rewrite
a generating function into a finite eta-quotient combination modulo a power
of 2 or 3.
"""

import math

from overq import replay_binomial_tables, verify_dissection_step
from overq.congruences import binomial_table, builtin_steps

# The tables list C(s*t, r) * (-2)^r mod 2^w, which depends on t only through
# a residue.  Recompute one entry by hand first:
value = (math.comb(45, 2) * (-2) ** 2) % 32  # s=15, t=3, r=2
print("C(45,2) * 4 mod 32 =", value, "| table row:", binomial_table(32)[3])

for width in (16, 32):
    result = replay_binomial_tables(width)
    print(f"mod-{width} table: {result.entries_checked} entries ->",
          "PASS" if result.ok else f"FAIL {result.mismatches}")

# Each dissection step is itself a series congruence and is checked
# coefficient by coefficient to a truncation order.
print(f"\n{'STEP':14} {'PARAMS':10} {'MODULUS':>8}  STATUS")
for step in builtin_steps():
    point = dict(step.default_params[0])
    result = verify_dissection_step(step.key, point, order=200)
    print(f"{step.key:14} {result.params_text():10} {result.modulus:>8}  {result.status}")
