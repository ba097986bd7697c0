"""Permutation arithmetic: parity, triple-rotation generators, and dense ranking.

Permutations are arrangements of the symbols ``1..n`` written in one-line
notation, ``p = p_1 p_2 ... p_n`` with symbol ``p_i`` at position ``i``.
Positions and symbols are both 1-based throughout; only vertex ids (ranks)
are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

MIN_N = 3
MAX_N = 12  # n! must stay well inside 64-bit vertex ids

__all__ = [
    "MIN_N",
    "MAX_N",
    "Parity",
    "Perm",
    "symbols_text",
    "parity",
    "swap",
    "exchange",
    "rot_plus",
    "rot_minus",
    "rank",
    "unrank",
    "even_rank",
    "even_unrank",
]


class Parity(Enum):
    EVEN = 0
    ODD = 1


@dataclass(frozen=True)
class Perm:
    """A permutation of ``{1..n}`` in one-line notation."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        n = len(self.symbols)
        if not MIN_N <= n <= MAX_N:
            raise ValueError(f"permutation size {n} outside [{MIN_N}, {MAX_N}]")
        if sorted(self.symbols) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.symbols}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        """Parse the text form: digits for n <= 9, comma-separated for n >= 10."""
        if "," in text:
            symbols = tuple(int(tok) for tok in text.split(","))
        else:
            symbols = tuple(int(ch) for ch in text)
        return cls(symbols)

    def text(self) -> str:
        return symbols_text(self.symbols)

    def __str__(self) -> str:
        return self.text()


def symbols_text(symbols: tuple[int, ...]) -> str:
    """The text form of a permutation's symbols: digits for n <= 9, comma-separated above."""
    return ("" if len(symbols) <= 9 else ",").join(map(str, symbols))


def parity(p: Perm) -> Parity:
    """Parity by direct inversion counting (pairs with p_i < p_j and i > j)."""
    s = p.symbols
    n = len(s)
    inv = 0
    for a in range(n):
        for b in range(a + 1, n):
            if s[a] > s[b]:
                inv += 1
    return Parity.EVEN if inv % 2 == 0 else Parity.ODD


def swap(p: Perm, i: int, j: int) -> Perm:
    """Swap the symbols at positions i and j (1-based)."""
    n = p.n
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"swap positions ({i}, {j}) invalid for n={n}")
    s = list(p.symbols)
    s[i - 1], s[j - 1] = s[j - 1], s[i - 1]
    return Perm(tuple(s))


def exchange(p: Perm) -> Perm:
    """The 2-exchange g_12."""
    return swap(p, 1, 2)


def rot_plus(p: Perm, i: int) -> Perm:
    """g_i+ = g_2i g_12: rotate the symbols at positions 1, 2, i left-to-right."""
    if not 3 <= i <= p.n:
        raise ValueError(f"rotation index {i} outside [3, {p.n}]")
    return swap(swap(p, 2, i), 1, 2)


def rot_minus(p: Perm, i: int) -> Perm:
    """g_i- = g_1i g_12: rotate the symbols at positions 1, 2, i right-to-left."""
    if not 3 <= i <= p.n:
        raise ValueError(f"rotation index {i} outside [3, {p.n}]")
    return swap(swap(p, 1, i), 1, 2)


def rank(p: Perm) -> int:
    """Lexicographic rank of p within all n! permutations (Lehmer code)."""
    s = p.symbols
    n = len(s)
    r = 0
    for a in range(n):
        smaller = sum(1 for b in range(a + 1, n) if s[b] < s[a])
        r += smaller * math.factorial(n - 1 - a)
    return r


def unrank(k: int, n: int) -> Perm:
    """Inverse of :func:`rank`: the k-th permutation of 1..n in lex order."""
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"size {n} outside [{MIN_N}, {MAX_N}]")
    if not 0 <= k < math.factorial(n):
        raise ValueError(f"rank {k} outside [0, {n}!)")
    pool = list(range(1, n + 1))
    out = []
    for a in range(n):
        f = math.factorial(n - 1 - a)
        idx, k = divmod(k, f)
        out.append(pool.pop(idx))
    return Perm(tuple(out))


def even_rank(p: Perm) -> int:
    """Dense 0-based id of an even permutation within A_n.

    Lex-consecutive permutations sharing their first n-2 symbols differ by one
    transposition of the last two, so exactly one of each rank pair (2m, 2m+1)
    is even and ``rank // 2`` is a bijection A_n -> [0, n!/2).
    """
    if parity(p) is not Parity.EVEN:
        raise ValueError(f"{p} is odd; even_rank is defined on A_n only")
    return rank(p) // 2


def even_unrank(k: int, n: int) -> Perm:
    """Inverse of :func:`even_rank`."""
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"size {n} outside [{MIN_N}, {MAX_N}]")
    if not 0 <= k < math.factorial(n) // 2:
        raise ValueError(f"rank {k} outside [0, {n}!/2)")
    p = unrank(2 * k, n)
    if parity(p) is Parity.EVEN:
        return p
    return unrank(2 * k + 1, n)
