"""Expected answers for the benchmark workloads, written by hand.

Every number here follows from a family's statement, status and parameter
domain, or from the default grid and step lists, not from a run of the
program; the one exception is the recorded failure count of the known false
conjecture.  A job whose exit code or verdicts differ from these is an error.
"""

# --- scan: `verify` over every family key on the default grid -------------

GRID = {"t_max": 64, "n_max": 200, "alpha_max": 2, "i_max": 3, "j_max": 3}

_T = GRID["t_max"] + 1  # t = 0..64
_T_NOT_1_MOD_4 = _T - 16  # drops t = 1, 5, ..., 61
_A = GRID["alpha_max"] + 1  # a = 0..2
_I = GRID["i_max"]  # i = 1..3
_J = GRID["j_max"]  # j = 1..3
_R = 8  # odd r in 1..15
_K = 5  # k coprime to 6: 1, 5, 7, 11, 13
_L = 4  # odd l, 3 does not divide l, l != 1: 5, 7, 11, 13
_L_WIDE = 5  # the same with l = 1 admitted

# The one known false conjecture: it already fails at its smallest point (the
# odd-part pair count of 4 is 32, which 2^6 does not divide), and at 80 of its
# 24 * 201 grid coefficients in all.
SCAN_FAILING = {"opt-8n+4-mod-2^{2i+4}": 80}

# key -> (verdict, parameter points in the default grid)
SCAN = {
    "pbar-n-mod2": ("pass", _T),
    "pbar-8n+1-mod2": ("pass", _T),
    "pbar-8n+2-mod4": ("pass", _T),
    "pbar-8n+3-mod8": ("pass", _T),
    "pbar-8n+4-mod2": ("pass", _T),
    "pbar-8n+5-mod8": ("pass", _T),
    "pbar-8n+6-mod8": ("pass", _T),
    "pbar-8n+7-mod32": ("pass", _T),
    "pbar-16n+10-mod8": ("pass", _T),
    "pbar-4n+3-mod8": ("pass", _T),
    "pbar-16n+14-mod16": ("pass", _T),
    "pbar-4n+3-mod16": ("pass", _T_NOT_1_MOD_4),
    "pbar-8n+6-mod16": ("pass", _T_NOT_1_MOD_4),
    "pbar-2^{2a+2}n+2^{2a+1}-mod4": ("pass", _T * _A),
    "pbar-2^{2a+2}n+3*2^{2a}-mod4": ("pass", _T * _A),
    "pbar-2^{2a+3}n+5*2^{2a}-mod4": ("pass", _T * _A),
    "pbar-2^{2a+3}n+2^{2a}-mod4-tri": ("pass", _T * _A),
    "opt-8n+7-mod-2^{i+4}": ("pass", _I * _R),
    "opt-3n+2-mod-3^{i+1}2^{j+2}": ("pass", _I * _J * _K),
    "opt-3n+1-mod-3^i2^{j+1}": ("pass", _I * _J * _K),
    "opt-3n+2-mod-3^{i+1}2": ("pass", _I * _L),
    "opt-3n+1-mod-3^i2": ("pass", _I * _L),
    "opt-3n+2-mod-3^{i+1}2-l1": ("conjecture-pass", _I * _L_WIDE),
    "opt-3n+1-mod-3^i2-l1": ("conjecture-pass", _I * _L_WIDE),
    "opt-8n+2-mod-2^{2i+1}": ("conjecture-pass", _I * _R),
    "opt-8n+4-mod-2^{2i+4}": ("conjecture-fail", _I * _R),
    "opt-8n+6-mod-2^{2i+3}": ("conjecture-pass", _I * _R),
}

# The scan raises the working order above the configured 500; the CLI says
# so on stderr.  That warning is expected output, not an error.
SCAN_STDERR_MARK = "raising working order"

# --- rewrite: `identities --order 2000`, then `replay` -----------------------

IDENTITY_ORDER = 2000
# B1: f1^(p^k) == f_p^(p^(k-1)) mod p^k for p in {2, 3}, k = 1..5; then the
# dissections D1..D4, their square D1SQ, Jacobi's identity and the R13 collapse.
IDENTITIES = tuple(f"B1-p{p}-k{k}" for p in (2, 3) for k in range(1, 6)) + (
    "D1",
    "D1SQ",
    "D2",
    "D3",
    "D4",
    "JACOBI",
    "R13",
)

REPLAY_ORDER = 500
# width -> (rows, entries): each row is checked at t = i and t = i + rows,
# for r = 1..3 (mod 16) or r = 1..4 (mod 32).
TABLES = {16: (8, 8 * 2 * 3), 32: (16, 16 * 2 * 4)}
# step key -> number of default parameter points
STEPS = {
    "M1": 7,  # t = 0..6
    "G4-even": 4,  # t = 0, 2, 4, 6
    "G4-odd": 4,  # t = 1, 3, 5, 7
    "G16": 9,  # t = 0..8
    "G32": 17,  # t = 0..16
    "opt-2n+1-i1": 3,  # r = 1, 3, 5
    "opt-2n+1": 3,  # (i, r) = (2, 1), (3, 1), (2, 3)
    "opt-4n+3-i1": 2,  # r = 1, 3
}

# --- crosscheck: `oracle` against the generating functions -----------------

ORACLE_UPTO = 600
ORACLE_SIZES = 7  # tuple sizes per family
ORACLE_MAX_SIZE = 16
ORACLE_TOTAL = 21  # 0 + 1 + ... + 6, the CLI's default sizes

# First coefficients of the single overpartition and odd-part overpartition
# series (OEIS A015128 and A080054).
KNOWN_COUNTS = {
    ("overpartition-tuples", 1): (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232),
    ("opt-tuples", 1): (1, 2, 2, 4, 6, 8, 12, 16, 22, 30, 40),
}


def small_counts(family: str, size: int) -> tuple[int, int, int]:
    """Counts at n = 0, 1, 2 for a tuple of ``size`` colours.

    n = 1: a single part 1, in any colour, overlined or not: 2 * size.
    n = 2, overpartitions: 2, 2-bar, 1+1, 1-bar+1 in one colour (4 * size)
    or 1 in each of two colours (4 * C(size, 2)); odd parts: only the two
    1+1 forms in one colour, or 1 in each of two colours.
    """
    pairs = size * (size - 1) // 2
    two = 4 * size + 4 * pairs if family == "overpartition-tuples" else 2 * size + 4 * pairs
    return 1, 2 * size, two
