"""Reference answers for the ``reduce`` workload, written without diffalg.

A presentation on D_1..D_n has, for every pair i < j, the relation

    g(i,j) D_i D_j - g(j,i) D_j D_i = x(j) D_i - x(i) D_j

so an adjacent increasing pair D_i D_j rewrites to

    (g(j,i) D_j D_i + x(j) D_i - x(i) D_j) / g(i,j).

Every word that rewrite produces has strictly fewer ascent pairs (index
pairs p < q with w[p] < w[q]) than its parent.  The reducer below keeps one
bucket of words per ascent-pair count, always expands the bucket with the
highest count, and adds up the coefficients of equal words before a word is
expanded, so each distinct word is rewritten exactly once.  There is no
recursion and no cache that outlives a call.

Only ``fractions.Fraction`` and the standard library are used here, so an
agreement between this module and diffalg means something.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["Table", "parse_table", "parse_expr", "parse_output", "reduce_expr",
           "ascent_pairs", "quantum_plane_closed_form"]


class Table:
    """Coefficients g(i,j) and x(i) of one presentation; absent entries are 0."""

    def __init__(self, n: int, g: dict, x: dict):
        self.n = n
        self.g = {(i, j): Fraction(g.get((i, j), 0))
                  for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        self.x = {i: Fraction(x.get(i, 0)) for i in range(1, n + 1)}

    def render(self) -> str:
        """The ``.dalg`` text of this table."""
        lines = [f"n = {self.n}"]
        for (i, j), v in sorted(self.g.items()):
            if v != 0:
                lines.append(f"g {i} {j} = {v}")
        for i, v in sorted(self.x.items()):
            if v != 0:
                lines.append(f"x {i} = {v}")
        return "\n".join(lines) + "\n"


def parse_table(text: str) -> Table:
    """Read the ``.dalg`` statements ``n = N``, ``g I J = Q`` and ``x I = Q``."""
    n = None
    g: dict = {}
    x: dict = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "n":
            n = int(tokens[2])
        elif tokens[0] == "g":
            g[(int(tokens[1]), int(tokens[2]))] = Fraction(tokens[4])
        elif tokens[0] == "x":
            x[int(tokens[1])] = Fraction(tokens[3])
        else:
            raise ValueError(f"unknown statement {raw!r}")
    if n is None:
        raise ValueError("no 'n = N' line")
    return Table(n, g, x)


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?((?:D\d+(?:\^\d+)?\s*)*)")
_FACTOR = re.compile(r"D(\d+)(?:\^(\d+))?")


def _parse_terms(text: str) -> dict:
    """``{word: coefficient}`` of a sum of terms ``[+-] [Q [*]] D_a[^k] ...``."""
    out: dict = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at column {pos + 1}")
        sign, coeff, factors = m.groups()
        if coeff is None and not factors.strip():
            raise ValueError(f"empty term in {text!r} at column {pos + 1}")
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        word = []
        for a, k in _FACTOR.findall(factors):
            word.extend([int(a)] * (int(k) if k else 1))
        word = tuple(word)
        v = out.get(word, 0) + c
        if v:
            out[word] = v
        else:
            out.pop(word, None)
        pos = m.end()
    return out


def parse_expr(text: str) -> dict:
    """Free-word combination written in the CLI expression grammar."""
    return _parse_terms(text)


def parse_output(text: str) -> dict:
    """Normal form printed by ``reduce``: ``0`` or a sum of decreasing words."""
    text = text.strip()
    if text == "0":
        return {}
    return _parse_terms(text)


def ascent_pairs(word: tuple) -> int:
    return sum(1 for p in range(len(word)) for q in range(p + 1, len(word))
               if word[p] < word[q])


def _drop_cost(word: tuple, p: int) -> int:
    """Ascent pairs that involve position ``p`` of ``word``."""
    a = word[p]
    return (sum(1 for b in word[:p] if b < a)
            + sum(1 for b in word[p + 1:] if b > a))


def reduce_expr(table: Table, combination: dict) -> dict:
    """Normal form of a free-word combination: ``{decreasing word: coefficient}``."""
    buckets: dict = {}

    def add(word, count, c):
        bucket = buckets.setdefault(count, {})
        v = bucket.get(word, 0) + c
        if v:
            bucket[word] = v
        else:
            bucket.pop(word, None)

    for word, c in combination.items():
        if c:
            add(tuple(word), ascent_pairs(word), Fraction(c))
    out: dict = {}
    while buckets:
        count = max(buckets)
        bucket = buckets.pop(count)
        for word, c in bucket.items():
            if count == 0:
                out[word] = c
                continue
            p = next(p for p in range(len(word) - 1) if word[p] < word[p + 1])
            i, j = word[p], word[p + 1]
            lead = table.g[(i, j)]
            head, tail = word[:p], word[p + 2:]
            if table.g[(j, i)]:
                add(head + (j, i) + tail, count - 1, c * table.g[(j, i)] / lead)
            if table.x[j]:
                add(head + (i,) + tail, count - _drop_cost(word, p + 1),
                    c * table.x[j] / lead)
            if table.x[i]:
                add(head + (j,) + tail, count - _drop_cost(word, p),
                    -c * table.x[i] / lead)
    return out


def quantum_plane_closed_form(table: Table, k: int) -> dict:
    """``D1^k D2^k = q^(k*k) D2^k D1^k`` on a homogeneous quantum plane."""
    if table.n != 2 or table.x[1] or table.x[2]:
        raise ValueError("closed form needs a homogeneous two-generator table")
    q = table.g[(2, 1)] / table.g[(1, 2)]
    c = q ** (k * k)
    return {(2,) * k + (1,) * k: c} if c else {}
