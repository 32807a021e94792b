"""Independent checks for the benchmark's tasks.

Nothing here imports exoticaffine: every expected answer is either known
from topology or recomputed with the small exact routines below, so a bug in
the package cannot hide itself by agreeing with its own output.
"""

from __future__ import annotations

import json
from fractions import Fraction


class OracleError(Exception):
    """An output that disagrees with the oracle."""


def require(condition: bool, message: str):
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# sparse polynomials: {exponent tuple: Fraction}


def poly_from_json(data) -> tuple[tuple[str, ...], dict]:
    names = tuple(data["vars"])
    terms = {}
    for entry in data["terms"]:
        e = tuple(int(x) for x in entry["e"])
        require(len(e) == len(names), "exponent length differs from vars")
        c = Fraction(entry["c"])
        require(c != 0 and e not in terms, "zero or repeated term in JSON polynomial")
        terms[e] = c
    return names, terms


def evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in terms.items():
        value = c
        for x, k in zip(point, e):
            if k:
                value *= x**k
        total += value
    return total


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_diff(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[ne] = c * e[i]
    return out


def derive(images: list[dict], f: dict) -> dict:
    """Leibniz extension of the generator images, in the ambient ring."""
    out: dict = {}
    for i, img in enumerate(images):
        if img:
            out = poly_add(out, poly_mul(poly_diff(f, i), img))
    return out


def flow_value(images: list[dict], nvars: int, var: int, t: Fraction, point, cap=64):
    """exp(t*delta)(x_var) at the point, as the finite sum of t^i delta^i / i!."""
    term = {tuple(int(j == var) for j in range(nvars)): Fraction(1)}
    total = Fraction(0)
    factorial = 1
    for i in range(cap):
        if not term:
            return total
        if i:
            factorial *= i
        total += evaluate(term, point) * t**i / factorial
        term = derive(images, term)
    raise OracleError("derivation is not nilpotent on the generator")


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [[sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a]


def det(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def int_matrix(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# abelian groups as printed by the CLI: "0", "Z", "Z + Z/2", ...


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    if text == "0":
        return 0, ()
    rank, torsion = 0, []
    for part in text.split(" + "):
        if part == "Z":
            rank += 1
        else:
            require(part.startswith("Z/"), f"unreadable group summand {part!r}")
            torsion.append(int(part[2:]))
    return rank, tuple(torsion)


def load(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None
