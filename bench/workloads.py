"""Seeded task generators for the three benchmark workloads.

A workload is a list of tasks; a task is one `exotic ...` command line plus
the oracle that judges its output.  The seed only changes names, steps,
coefficients and matrix entries: the number of tasks and the size of each
one are fixed per workload, so runs with different seeds do the same
amount of work.  The generators never call exoticaffine.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from oracle import (
    derive,
    det,
    evaluate,
    flow_value,
    int_matrix,
    mat_mul,
    parse_group,
    poly_from_json,
    require,
)


@dataclass(frozen=True)
class Task:
    id: str
    argv: tuple[str, ...]
    # Raises OracleError on a wrong answer.  May return a fingerprint that
    # must agree across every task of the same `group` (None: no group).
    check: Callable[[object], object]
    group: str | None = None


def _names(rng: random.Random, count: int, stem: str) -> list[str]:
    """`count` distinct seeded vertex names, sorted.

    The names change with the seed but their order does not: the package
    sorts simplices by vertex name, and the cost of exact elimination over
    Z depends on that order (up to 1.8x on the Klein bottle), which would
    otherwise swamp every other difference between seeds."""
    seen: set[str] = set()
    while len(seen) < count:
        seen.add(f"{stem}{rng.randrange(10**6):06d}")
    return sorted(seen)


# ---------------------------------------------------------------------------
# smith-gfp: Smith theory over GF(p) on the disc, sphere and circle models

SMITH_MODELS = ("disc", "sphere", "circle")
# Known answers.  The quotients of these regular actions are again a disc,
# a sphere (two fixed poles) and a circle (free action).
SMITH_DIMS = {"disc": [1, 0, 0], "sphere": [1, 0, 1], "circle": [1, 1]}
SMITH_EULER = {"disc": 1, "sphere": 2, "circle": 0}
SMITH_PAIR_DIMS = {"disc": [0, 0, 0], "sphere": [0, 1, 1], "circle": [1, 1]}
# Smith's theorem instance: premises hold only on the disc (fixed apex and
# acyclic quotient), and only the disc is Z_p-acyclic.
SMITH_PROP4 = {"disc": (True, True), "sphere": (False, False), "circle": (False, False)}


def smith_model(rng: random.Random, model: str, p: int) -> dict:
    """Complex JSON plus a Z_p rotation with a seeded step and vertex names."""
    step = rng.randrange(1, p)
    if model == "circle":
        ring = _names(rng, 2 * p, "c")
        n, shift, apexes = 2 * p, 2 * step, []
    else:
        ring = _names(rng, p + (1 if model == "disc" else 2), "v")
        apexes, ring = ring[p:], ring[:p]
        n, shift = p, step
    simplices = [[ring[i], ring[(i + 1) % n]] for i in range(n)]
    for apex in apexes:
        simplices += [[apex, ring[i], ring[(i + 1) % n]] for i in range(n)]
    perm = {ring[i]: ring[(i + shift) % n] for i in range(n)}
    perm.update({apex: apex for apex in apexes})
    return {"simplices": simplices, "action": {"order": p, "perm": perm}}


def _check_smith_homology(model: str, p: int):
    def check(out):
        require(out["mod"] == str(p), "wrong modulus")
        require([int(d) for d in out["dims"]] == SMITH_DIMS[model], f"dims {out['dims']}")

    return check


def _padded(values, n):
    return [int(v) for v in values] + [0] * (n - len(values))


def _check_sequences(model: str, p: int):
    def check(out):
        require(out["p"] == str(p), "wrong prime")
        for flag in ("ses_exact", "les_rho_exact", "les_tau_exact", "special_matches_pair"):
            require(out[flag] is True, f"{flag} is not true")
        expect = SMITH_PAIR_DIMS[model]
        n = max(len(expect), len(out["pair_dims"]), len(out["special_dims_sigma"]))
        require(_padded(out["pair_dims"], n) == _padded(expect, n), f"pair dims {out['pair_dims']}")
        require(
            _padded(out["special_dims_sigma"], n) == _padded(expect, n),
            f"special dims {out['special_dims_sigma']}",
        )
        premises, conclusion = SMITH_PROP4[model]
        require(out["prop4_premises"] is premises, "prop4 premises")
        require(out["prop4_conclusion"] is conclusion, "prop4 conclusion")

    return check


def _check_orbit(model: str):
    def check(out):
        simplices = out["complex"]["simplices"]
        euler = sum((-1) ** (len(s) - 1) for s in simplices)
        require(euler == SMITH_EULER[model], f"orbit complex has Euler characteristic {euler}")
        require(out["euler"] == str(euler), "reported Euler characteristic disagrees")
        vertices = {s[0] for s in simplices if len(s) == 1}
        require(set(out["projection"].values()) == vertices, "projection misses the quotient")

    return check


def _check_transfer(model: str, p: int):
    def check(out):
        require(out["group_order"] == str(p) and out["prime"] == "2", "wrong orders")
        for flag in (
            "mu_is_chain_map",
            "chain_level_pi_mu_is_s",
            "action_homologically_trivial",
            "pi_mu_is_s_on_homology",
            "mu_pi_is_sigma_on_homology",
            "projection_iso_on_homology",
        ):
            require(out[flag] is True, f"{flag} is not true")
        for key in ("homology_dims_y", "homology_dims_x"):
            require([int(d) for d in out[key]] == SMITH_DIMS[model], f"{key} {out[key]}")

    return check


# Left out: together these two take about 11 s, two thirds of a pass, so a
# run could time them only twice and their drift would decide wall_s.
SMITH_SKIPPED = {"sequences/sphere:5", "transfer/sphere:5"}


def smith_gfp(rng: random.Random, reduced: bool) -> list[Task]:
    tasks = []
    for p in (3,) if reduced else (3, 5):
        for model in SMITH_MODELS:
            data = json.dumps(smith_model(rng, model, p))
            name = f"{model}:{p}"
            tasks += [
                Task(f"sequences/{name}", ("smith", "sequences", "--json", data),
                     _check_sequences(model, p)),
                Task(f"homology/{name}", ("smith", "homology", "--json", data, "--mod", str(p)),
                     _check_smith_homology(model, p)),
                Task(f"orbit/{name}", ("smith", "orbit", "--json", data, "--repair"),
                     _check_orbit(model)),
                Task(f"transfer/{name}", ("smith", "transfer", "--json", data, "--repair"),
                     _check_transfer(model, p)),
            ]
    return [t for t in tasks if t.id not in SMITH_SKIPPED]


# ---------------------------------------------------------------------------
# integer-linalg: homology over Z, Smith normal form, resolution chains


def _klein_grid() -> list[tuple]:
    """3x3 grid with the top edge glued to the bottom one reversed."""

    def vertex(x, y):
        if y == 3:
            x, y = -x, 0
        return (x % 3, y)

    faces = []
    for i in range(3):
        for j in range(3):
            a, b = vertex(i, j), vertex(i + 1, j + 1)
            faces += [(a, vertex(i + 1, j), b), (a, vertex(i, j + 1), b)]
    return faces


SURFACES = {
    # name: (maximal simplices, subdivisions, reduced-run subdivisions, Z homology)
    "sphere": (list(itertools.combinations(range(4), 3)), 1, 1, ((1, ()), (0, ()), (1, ()))),
    "disc": ([(0, 1, 2)], 2, 1, ((1, ()), (0, ()), (0, ()))),
    "rp2": (
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
         (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)],
        1, 0, ((1, ()), (0, (2,)), (0, ())),
    ),
    "torus": (
        [tuple(sorted({i, (i + 1) % 7, (i + 3) % 7})) for i in range(7)]
        + [tuple(sorted({i, (i + 2) % 7, (i + 3) % 7})) for i in range(7)],
        1, 0, ((1, ()), (2, ()), (1, ())),
    ),
    "klein": (_klein_grid(), 1, 0, ((1, ()), (1, (2,)), (0, ()))),
}


def barycentric(faces: list[tuple]) -> list[tuple]:
    """Maximal simplices of the barycentric subdivision: one per flag."""
    out = []
    for face in faces:
        for order in itertools.permutations(face):
            out.append(tuple(frozenset(order[: r + 1]) for r in range(len(order))))
    return out


def surface_complex(rng: random.Random, name: str, reduced: bool) -> list[list[str]]:
    faces, rounds, reduced_rounds, _ = SURFACES[name]
    faces = [tuple(f) for f in faces]
    for _ in range(reduced_rounds if reduced else rounds):
        faces = barycentric(faces)
    vertices = sorted({v for f in faces for v in f}, key=repr)
    # One fixed shuffle for every seed: a typical elimination order, the
    # same work whatever the seed (see _names).
    random.Random(f"{name} vertex order").shuffle(vertices)
    label = dict(zip(vertices, _names(rng, len(vertices), "w")))
    return [[label[v] for v in f] for f in faces]


def _check_z_homology(expect):
    def check(out):
        got = tuple(parse_group(g) for g in out["homology"])
        require(got == expect, f"homology {out['homology']}")

    return check


def random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Entries in [-20, 20]; every third row is a combination of the two
    before it, so rank deficits and zero invariant factors appear."""
    m = []
    for i in range(rows):
        if i >= 2 and i % 3 == 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m.append([a * x + b * y for x, y in zip(m[i - 1], m[i - 2])])
        else:
            m.append([rng.randint(-20, 20) for _ in range(cols)])
    return m


def _check_snf(matrix):
    def check(out):
        u, s, v = (int_matrix(out[k]) for k in ("U", "S", "V"))
        require(len(u) == len(matrix) and len(v) == len(matrix[0]), "wrong transform shapes")
        require(abs(det(u)) == 1 and abs(det(v)) == 1, "transforms are not unimodular")
        require(mat_mul(mat_mul(u, matrix), v) == s, "U*M*V != S")
        diag = []
        for i, row in enumerate(s):
            for j, x in enumerate(row):
                if i == j:
                    diag.append(x)
                else:
                    require(x == 0, "S is not diagonal")
        for a, b in zip(diag, diag[1:]):
            require(a >= 0 and (b == 0 if a == 0 else b % a == 0), "divisibility chain broken")

    return check


def chain_pair(rng: random.Random, length: int) -> tuple[int, int]:
    """Coprime (m, n) whose resolution chain has exactly `length` curves.

    The chain has one curve per step of subtractive Euclid, i.e. the sum of
    the partial quotients of m/n; so draw a composition of `length`.
    """
    cuts = sorted(rng.sample(range(1, length), rng.randint(0, min(4, length - 1))))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    value = Fraction(parts[-1])
    for q in reversed(parts[:-1]):
        value = q + 1 / value
    return value.numerator, value.denominator


def _check_chain(m: int, n: int, length: int):
    def check(out):
        graph = out["graph"]
        ids = [v["id"] for v in graph["vertices"]]
        weights = {v["id"]: int(v["w"]) for v in graph["vertices"]}
        require(len(ids) == length, f"chain has {len(ids)} curves, expected {length}")
        require(sum(w == -1 for w in weights.values()) == 1, "not exactly one (-1)-curve")
        degree = {v: 0 for v in ids}
        for a, b in graph["edges"]:
            degree[a] += 1
            degree[b] += 1
        require(len(graph["edges"]) == length - 1 and max(degree.values()) <= 2, "not a chain")
        index = {v: i for i, v in enumerate(ids)}
        matrix = [[weights[v] if v == u else 0 for u in ids] for v in ids]
        for a, b in graph["edges"]:
            matrix[index[a]][index[b]] = matrix[index[b]][index[a]] = 1
        d = det(matrix)
        require(abs(d) == 1 and out["determinant"] == str(d), f"determinant {out['determinant']}")
        last = out["labels"][out["order"][-1]]
        require(sorted(int(x) for x in last) == sorted((m, n)), "last label is not (m, n)")

    return check


SNF_SHAPES = ((3, 5), (5, 3), (4, 4), (5, 5), (6, 6), (5, 8), (8, 5), (7, 7))
CHAIN_LENGTHS = (3, 5, 8, 12, 16, 20, 25, 30)


def integer_linalg(rng: random.Random, reduced: bool) -> list[Task]:
    tasks = []
    for name, (_, _, _, expect) in SURFACES.items():
        data = json.dumps({"simplices": surface_complex(rng, name, reduced)})
        tasks.append(Task(f"homology/{name}", ("smith", "homology", "--json", data),
                          _check_z_homology(expect)))
    copies = 1 if reduced else 6
    for i, (rows, cols) in enumerate(SNF_SHAPES * copies):
        matrix = random_matrix(rng, rows, cols)
        tasks.append(Task(f"snf/{i}", ("group", "snf", "--matrix", json.dumps(matrix)),
                          _check_snf(matrix)))
    for i, length in enumerate(CHAIN_LENGTHS * copies):
        m, n = chain_pair(rng, length)
        tasks.append(Task(f"chain/{i}", ("graph", "chain", "--m", str(m), "--n", str(n)),
                          _check_chain(m, n, length)))
    return tasks


# ---------------------------------------------------------------------------
# polynomial-lnd: canonical forms on the Russell cubic and LND calculus

RUSSELL = "x + x^2*y + z^2 + t^3"
RUSSELL_DELTAS = {
    "delta1": {"x": "0", "y": "0-2*z", "z": "x^2", "t": "0"},
    "delta2": {"x": "0", "y": "0-3*t^2", "z": "0", "t": "x^2"},
}
REPRO = ("derksen", "lnd-suite", "nagata", "morphism")


def _monomial_text(names, exps) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def random_poly(shape: random.Random, rng: random.Random, names, nterms: int, degree: int) -> str:
    """Polynomial text with `nterms` distinct monomials of total degree <= degree.

    The monomials come from `shape`, which is the same for every seed, so
    every seed does the same reduction work; the seeded `rng` picks the
    nonzero coefficients."""
    monomials: list[tuple] = []
    while len(monomials) < nterms:
        exps = [0] * len(names)
        for _ in range(shape.randint(1, degree)):
            exps[shape.randrange(len(names))] += 1
        if tuple(exps) not in monomials:
            monomials.append(tuple(exps))
    terms = [f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{_monomial_text(names, e)}" for e in monomials]
    return " + ".join(terms).replace("+ -", "- ")


def russell_point(rng: random.Random) -> tuple[Fraction, ...]:
    """A rational point of x + x^2 y + z^2 + t^3 = 0 with x != 0."""
    x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    z, t = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return (x, -(x + z * z + t**3) / (x * x), z, t)


def _parse_text_poly(text: str, names) -> dict:
    """Terms of the generator's own `c*x^a*y^b + ...` texts."""
    terms: dict = {}
    for chunk in text.replace("- ", "+ -").split(" + "):
        coeff, e = Fraction(1), [0] * len(names)
        for factor in chunk.split("*"):
            var, _, power = factor.lstrip("-").partition("^")
            if var in names:
                e[names.index(var)] += int(power or 1)
                coeff *= -1 if factor.startswith("-") else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(e)
        terms[key] = terms.get(key, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def _check_canonical(p_terms, points, general):
    """A canonical form modulo the Russell relation: no monomial divisible by
    x^2 y, and equal to the input on points of the surface."""

    def check_nf(nf):
        names, terms = poly_from_json(nf)
        require(names == ("x", "y", "z", "t"), "wrong variables")
        require(not any(e[0] >= 2 and e[1] >= 1 for e in terms), "x^2*y divides a monomial")
        for pt in points:
            require(evaluate(terms, pt) == evaluate(p_terms, pt), "differs from input on the surface")
        return tuple(sorted(terms.items()))

    def check_grade(out):
        fingerprint = check_nf(out["canonical"])
        canonical = dict(fingerprint)
        parts = {k: poly_from_json(out[k])[1] for k in "abc"}
        require(not any(e[1] for e in parts["a"]), "a depends on y")
        require(not any(e[0] for k in "bc" for e in parts[k]), "b or c depends on x")
        for pt in general:
            x, y = pt[0], pt[1]
            value = evaluate(parts["a"], pt) + y * evaluate(parts["b"], pt)
            value += x * y * evaluate(parts["c"], pt)
            require(value == evaluate(canonical, pt), "a + y b + x y c != canonical form")
        degree = max((2 * e[1] - e[0] for e in canonical), default=None)
        require(out["quotient_degree"] == ("-inf" if degree is None else str(degree)),
                f"quotient degree {out['quotient_degree']}")
        return fingerprint

    return check_nf, check_grade


def _check_pow(base_terms, n, points):
    def check(out):
        _, terms = poly_from_json(out)
        for pt in points:
            require(evaluate(terms, pt) == evaluate(base_terms, pt) ** n, "wrong power")

    return check


def _lnd_images(names, images: dict) -> list[dict]:
    return [{} if images[n] == "0" else _parse_text_poly(images[n].removeprefix("0"), names)
            for n in names]


def _check_flow(names, images, t, points):
    def check(out):
        for i, name in enumerate(names):
            _, terms = poly_from_json(out[name])
            for pt in points:
                want = flow_value(images, len(names), i, t, pt)
                require(evaluate(terms, pt) == want, f"flow of {name} is wrong")

    return check


def _check_kernel_list(polys, names, images, bound, points):
    require(polys, "empty kernel basis")
    seen = set()
    for data in polys:
        got_names, terms = poly_from_json(data)
        require(got_names == names and terms, "bad kernel element")
        require(max(sum(e) for e in terms) <= bound, "kernel element exceeds the degree bound")
        key = tuple(sorted(terms.items()))
        require(key not in seen, "repeated kernel element")
        seen.add(key)
        image = derive(images, terms)
        require(all(evaluate(image, pt) == 0 for pt in points), "element is not in the kernel")
    require((((0,) * len(names), Fraction(1)),) in seen, "the constant 1 is missing")


def _check_kernel(names, images, bound, points):
    def check(out):
        _check_kernel_list(out["basis"], names, images, bound, points)

    return check


def _check_invariants(names, images, bound, points):
    def check(out):
        _check_kernel_list(out["ml_basis"], names, images, bound, points)
        _check_kernel_list(out["dk_generators"], names, images, bound, points)

    return check


def _check_repro(name):
    def check(out):
        require(len(out) == 1 and out[0]["scenario"] == name, "wrong scenario")
        require(out[0]["pass"] is True, f"scenario {name} failed")
        require(all(c["pass"] is True for c in out[0]["checks"]), "a check failed")

    return check


def _general_points(rng, nvars, count=2):
    return [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars))
            for _ in range(count)]


def polynomial_lnd(rng: random.Random, reduced: bool) -> list[Task]:
    xyzt = ("x", "y", "z", "t")
    xyz = ("x", "y", "z")
    scale = 1 if reduced else 6
    shape = random.Random("polynomial-lnd shapes")
    tasks = []
    for i in range(10 * scale):
        text = random_poly(shape, rng, xyzt, 3 + i % 3, 4 + i % 3)
        terms = _parse_text_poly(text, xyzt)
        check_nf, check_grade = _check_canonical(
            terms, [russell_point(rng) for _ in range(2)], _general_points(rng, 4))
        group = f"canonical/{i}"
        tasks.append(Task(f"grade/{i}", ("grade", "canonical", f"--poly={text}"),
                          check_grade, group))
        tasks.append(Task(f"nf/{i}", ("poly", "nf", f"-a={text}", f"-b={RUSSELL}",
                                      "--order-weights", "1,3,0,0"),
                          check_nf, group))
    for i in range(6 * scale):
        text = random_poly(shape, rng, xyzt, 2 + i % 3, 2)
        n = 2 + i % 4
        tasks.append(Task(f"pow/{i}", ("poly", "arith", f"-a={text}", "--op", "pow", "-n", str(n)),
                          _check_pow(_parse_text_poly(text, xyzt), n, _general_points(rng, 4))))
    for i in range(2 * scale):
        images = {"x": "0", "y": random_poly(shape, rng, ("x",), 2, 2),
                  "z": random_poly(shape, rng, ("x", "y"), 2, 2)}
        spec = json.dumps(images)
        parsed = _lnd_images(xyz, images)
        points = _general_points(rng, 3)
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        bound = 3 + i % 3
        ring = ("--ring", "C3", "--images", spec)
        tasks += [
            Task(f"flow/tri{i}", ("lnd", "flow", *ring, f"--t={t}"),
                 _check_flow(xyz, parsed, t, points)),
            Task(f"kernel/tri{i}", ("lnd", "kernel", *ring, "--degree-bound", str(bound)),
                 _check_kernel(xyz, parsed, bound, points)),
            Task(f"invariants/tri{i}", ("lnd", "invariants", *ring, "--degree-bound", str(bound)),
                 _check_invariants(xyz, parsed, bound, points)),
        ]
    surface = [russell_point(rng) for _ in range(2)]
    for name, images in RUSSELL_DELTAS.items():
        spec = json.dumps(images)
        parsed = _lnd_images(xyzt, images)
        ring = ("--ring", "russell", "--images", spec)
        for bound in (3,) if reduced else (3, 4, 5):
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            tasks += [
                Task(f"flow/{name}/{bound}", ("lnd", "flow", *ring, f"--t={t}"),
                     _check_flow(xyzt, parsed, t, surface)),
                Task(f"kernel/{name}/{bound}",
                     ("lnd", "kernel", *ring, "--degree-bound", str(bound)),
                     _check_kernel(xyzt, parsed, bound, surface)),
                Task(f"invariants/{name}/{bound}",
                     ("lnd", "invariants", *ring, "--degree-bound", str(bound)),
                     _check_invariants(xyzt, parsed, bound, surface)),
            ]
    for name in REPRO:
        tasks.append(Task(f"repro/{name}", ("repro", name), _check_repro(name)))
    return tasks


WORKLOADS = {
    "smith-gfp": smith_gfp,
    "integer-linalg": integer_linalg,
    "polynomial-lnd": polynomial_lnd,
}


def generate(workload: str, seed: int, reduced: bool = False) -> list[Task]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), reduced)
