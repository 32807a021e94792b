"""Single command-line entry point: every module as a subcommand.

JSON in, JSON out (DOT for `graph dot`), every number as a string; output is
byte-identical for identical inputs, and --verbose adds timing on stderr.

The command line is read by `parse_args` against one table, COMMANDS,
which gives each command's positional and options; a usage error prints a
usage line on stderr and exits 2.  A value may begin with `-`: the word
after an option is its value unless it is one of the command's own option
spellings.  Options are never abbreviated.

Outside input crosses one boundary: JSON options are read by `_json_arg`
(`-` is stdin, inline JSON is read as is, other text is a file path),
integer options by `_int_list`, and the options each verb needs or refuses
are checked once, from REQUIRED and REFUSED; each raises a CliError naming
the option.  The package readers own their formats and raise their
package's error; rational text goes through `linalg.coefficient`, which
refuses exponent notation, and variable names through
`polyring.readable_varset`.

Exit codes: 0 success; 1 bad input ({"error": ...} on stdout); 2 usage error
(an unknown command, verb or option, a missing value, a bad integer or an
extra word; the usage on stderr); 3 a bug ({"error": "InternalError: ..."}
on stdout, the traceback on stderr).
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from . import constructions, derivations, dualgraph, fpgroups, grading, polyring, smithhom
from .linalg import coefficient
from .polyring import Polynomial, VarSet, parse_polynomial, poly_from_json, terms_text

STEP_BUDGET_ENV = "EXOTIC_STEP_BUDGET"


class CliError(Exception):
    pass


def _json_arg(text: str, option: str):
    """The JSON an option gives: `-` reads stdin; text that starts with `{`
    or `[`, or is any other JSON value, is inline; anything else is a path."""
    try:
        if text == "-":
            return json.load(sys.stdin)
        try:
            return json.loads(text)
        except ValueError:
            if text.lstrip()[:1] in ("{", "["):
                raise
        with open(text) as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"{option}: cannot read {text!r}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, or a file that is not text
        raise CliError(f"{option}: not JSON: {exc}") from None


def _int_list(text: str, option: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of an option, exactly `count` of them
    when count is given."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        what = "an integer" if count == 1 else f"{count or 'a list of'} comma-separated integers"
        raise CliError(f"{option} takes {what}, not {text!r}")
    return values


def _need(args, option: str):
    """The value of an option the verb cannot run without."""
    value = getattr(args, option.lstrip("-"))
    if value is None:
        raise CliError(f"{args.command} {args.verb} needs {option}")
    return value


# The options a command needs, checked once before dispatch; a key names a
# whole command or one of its verbs.
REQUIRED = {
    "poly arith": "-a", "poly subst": "-a --map", "poly diff": "-a --by",
    "poly divide": "-a -b", "poly nf": "-a -b", "poly jacobian": "--fs", "grade": "--poly",
    "lnd": "--images", "lnd degree": "--poly",
    "graph blowup": "--site", "graph contract": "--site", "graph chain": "--m --n",
    "graph xt": "--entries", "graph tdp": "--entries", "graph ample": "--seed",
    "group abel": "--presentation", "group snf": "--matrix", "group named": "--name",
    "group triangle": "--k --l --s", "group sphere": "--k --l --s",
    "group xt": "--entries", "group bezout": "--k --l",
}


# The options a verb refuses: these verbs read no graph, and would otherwise
# drop one given to them without a word.
REFUSED = dict.fromkeys(("graph chain", "graph xt", "graph tdp"), "--json --chain --ramanujam")


def _typed(args, option: str) -> str:
    """The spelling of a given option that the command line used."""
    return getattr(args, f"{option.lstrip('-')}_typed", option)


def _check_options(args):
    verb = getattr(args, "verb", None)
    for key in (args.command, f"{args.command} {verb}"):
        for option in REQUIRED.get(key, "").split():
            _need(args, option)
        for option in REFUSED.get(key, "").split():
            if getattr(args, option.lstrip("-")) not in (None, False):
                raise CliError(f"{key} reads no graph; drop {_typed(args, option)}")


def _one_source(args, options: tuple[str, ...], what: str):
    """The one option of `options` that is given, or None."""
    given = [o for o in options if getattr(args, o.lstrip("-")) not in (None, False)]
    if len(given) > 1:
        first, second = (_typed(args, o) for o in given[:2])
        raise CliError(f"{first} and {second} both give the {what}; pass one")
    return given[0] if given else None


def _vars_from_arg(spec: str) -> VarSet:
    return polyring.readable_varset(name.strip() for name in spec.split(",") if name.strip())


def _poly_arg(text: str, vs: VarSet, option: str) -> Polynomial:
    text = text.strip()
    if text.startswith("{"):
        return poly_from_json(_json_arg(text, option))
    return parse_polynomial(text, vs)


def _poly_map(data, vs: VarSet, option: str) -> dict[str, Polynomial]:
    """{name: polynomial} from a JSON object whose values are polynomial
    text or polynomial JSON; any other value is a ParseError."""
    if not isinstance(data, dict):
        raise CliError(f"{option} takes a JSON object of polynomials")
    return {
        name: poly_from_json(value) if isinstance(value, dict) else parse_polynomial(value, vs)
        for name, value in data.items()
    }


def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):  # only the -inf degree sentinel
        return "-inf" if value == float("-inf") else str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _poly_out(p: Polynomial) -> dict:
    """poly_to_json(p) with the text str(p), from one sort of the terms."""
    terms = p.sorted_terms()
    return {
        "vars": list(p.varset.names),
        "terms": [{"c": str(c), "e": list(e)} for e, c in terms],
        "text": terms_text(p.varset.names, terms),
    }


def _ring_from_arg(spec: str):
    spec = spec.strip()
    if spec.lower() == "russell":
        return grading.russell_quotient()
    if spec.upper().startswith("C") and spec[1:].isdecimal():
        n = int(spec[1:])
        names = ("x", "y", "z", "t", "u", "v", "w")[:n]
        if len(names) < n:
            names = tuple(f"x{i}" for i in range(1, n + 1))
        return VarSet(names)
    if spec.startswith("{"):
        return polyring.varset_from_json(_json_arg(spec, "--ring"))
    return _vars_from_arg(spec)


def _derivation_from_args(args) -> derivations.Derivation:
    data = _json_arg(args.images, "--images")
    if not isinstance(data, dict):
        raise CliError("--images takes a JSON object of generator images")
    if args.ring is not None and "ring" in data:
        raise CliError('--ring and the "ring" of --images both give the ring; pass one')
    spec = data.get("ring", "russell") if args.ring is None else args.ring
    if not isinstance(spec, str):
        raise CliError(f'the "ring" of --images must be a string, not {spec!r}')
    ring = _ring_from_arg(spec)
    ambient = ring if isinstance(ring, VarSet) else ring.ambient
    images = data["images"] if "images" in data else {n: v for n, v in data.items() if n != "ring"}
    images = _poly_map(images, ambient, "--images")
    extra = sorted(set(images) - set(ambient.names))
    if extra:
        raise CliError(f"--images maps {extra}, not ring variables")
    for name in ambient.names:
        images.setdefault(name, Polynomial.zero(ambient))
    return derivations.make_derivation(ring, images)


def _graph_from_args(args) -> dualgraph.WeightedGraph:
    source = _one_source(args, ("--json", "--chain", "--ramanujam"), "graph")
    if source == "--json":
        return dualgraph.graph_from_json(_json_arg(args.json, _typed(args, "--json")))
    if source == "--chain":
        return dualgraph.chain_graph(_int_list(args.chain, "--chain"))
    if source == "--ramanujam":
        return dualgraph.ramanujam_graph()
    raise CliError("provide a graph via --json (or --file), --chain or --ramanujam")


def _weights_from_arg(spec: str, vs: VarSet) -> grading.WeightFunction:
    spec = spec.strip()
    if spec.startswith("{"):
        return grading.weights_from_json(_json_arg(spec, "--weights"))
    return grading.WeightFunction(vs, tuple(_int_list(spec, "--weights")))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_poly(args):
    vs = _vars_from_arg(args.vars)
    if args.verb == "jacobian":
        fs = [_poly_arg(t, vs, "--fs") for t in args.fs.split(";")]
        return _poly_out(polyring.jacobian_det(fs))
    a = _poly_arg(args.a, vs, "-a")
    if args.verb == "arith":
        b = None if args.op == "pow" else _poly_arg(_need(args, "-b"), vs, "-b")
        return _poly_out(polyring.arith(a, b, args.op, args.n))
    if args.verb == "subst":
        target = _vars_from_arg(args.target_vars) if args.target_vars else vs
        return _poly_out(a.substitute(_poly_map(_json_arg(args.map, "--map"), target, "--map")))
    if args.verb == "diff":
        return _poly_out(a.partial(args.by))
    b = _poly_arg(args.b, vs, "-b")
    if args.verb == "divide":
        return _poly_out(polyring.exact_divide(a, b))
    # nf
    budget = os.environ.get(STEP_BUDGET_ENV, str(polyring.DEFAULT_STEP_BUDGET))
    order = polyring.GRLEX
    if args.order_weights is not None:
        order = polyring.weighted_order(_int_list(args.order_weights, "--order-weights"))
    return _poly_out(polyring.normal_form(a, b, order, _int_list(budget, STEP_BUDGET_ENV, 1)[0]))


def _cmd_grade(args):
    vs = _vars_from_arg(args.vars)
    p = _poly_arg(args.poly, vs, "--poly")
    w = _weights_from_arg(args.weights, vs)
    if args.verb == "degree":
        return {"degree": _stringify(grading.weight_degree(p, w))}
    if args.verb == "decompose":
        comps, principal = grading.quasi_homogeneous_decompose(p, w)
        return {
            "components": {str(d): _poly_out(c) for d, c in comps.items()},
            "principal": _poly_out(principal),
        }
    if args.verb == "appropriate":
        status = grading.check_appropriate(p, w)
        return {"status": status.status, "reason": status.reason}
    if args.verb == "graded":
        g = grading.associated_graded_hypersurface(p, w)
        return {
            "relation_top": _poly_out(g.relation_top),
            "status": g.status.status,
            "reason": g.status.reason,
        }
    # canonical
    q = grading.russell_quotient()
    a, b, c = grading.canonical_form_decomposition(p, q)
    return {
        "canonical": _poly_out(q.canonical(p)),
        "a": _poly_out(a),
        "b": _poly_out(b),
        "c": _poly_out(c),
        "quotient_degree": _stringify(grading.quotient_degree(p, q, grading.RUSSELL_WEIGHTS)),
    }


def _cmd_lnd(args):
    d = _derivation_from_args(args)
    cert = derivations.nilpotency_test(d, args.bound)
    cert_payload = {
        "verdict": cert.verdict,
        "orders": None if cert.orders is None else _stringify(cert.orders),
        "bound": None if cert.bound is None else _stringify(cert.bound),
        "witness": cert.witness,
        "evidence": cert.evidence,
    }
    if args.verb == "check":
        return cert_payload
    if args.verb == "degree":
        f = parse_polynomial(args.poly, d.ambient)
        return {
            "deg": _stringify(derivations.partial_degree(d, cert, f)),
            "certificate": cert_payload,
        }
    if args.verb == "flow":
        try:
            t = coefficient(args.t)
        except ValueError:  # a parameter name, one the parser reads
            t = polyring.readable_varset([args.t]).names[0]
        except ZeroDivisionError:
            raise CliError(f"--t {args.t!r} has a zero denominator") from None
        flow = derivations.exp_flow(d, cert, t)
        return {name: _poly_out(p) for name, p in flow.items()}
    if args.verb == "kernel":
        basis = derivations.kernel_elements(d, cert, args.degree_bound)
        return {"basis": [_poly_out(p) for p in basis]}
    if args.verb == "graded":
        w = _weights_from_arg(args.weights, d.ambient)
        gd = derivations.graded_derivation(d, w)
        return {
            "shift": _stringify(gd.shift),
            "images": {n: _poly_out(p) for n, p in gd.images.items()},
        }
    # invariants
    result = derivations.invariant_candidates([d], [cert], args.degree_bound)
    return {
        "ml_basis": [_poly_out(p) for p in result.ml_basis],
        "dk_generators": [_poly_out(p) for p in result.dk_generators],
        "ml_semantics": result.ml_semantics,
        "dk_semantics": result.dk_semantics,
    }


def _cmd_family(args):
    params = {}
    if args.s is not None:
        params.update((f"s{i}", v) for i, v in enumerate(_int_list(args.s, "--s"), start=1))
    for key in ("k", "l", "n", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.s is not None and args.name in ("tdp_general", "brieskorn"):
        params["s"] = _int_list(args.s, "--s", 1)[0]
    if args.p is not None and args.vars is None:
        raise CliError("--p needs --vars")
    for key in ("p", "f", "g"):
        if getattr(args, key) is not None:
            params[key] = parse_polynomial(getattr(args, key), _vars_from_arg(args.vars or "x,y"))
    surface = constructions.family(args.name, **params)
    return {
        "ambient": list(surface.ambient.names),
        "defining": _poly_out(surface.defining),
        "provenance": _stringify(surface.provenance),
    }


def _cmd_graph(args):
    if args.verb == "chain":
        rc = dualgraph.resolution_chain(args.m, args.n)
        return {
            "graph": dualgraph.graph_to_json(rc.graph),
            "order": list(rc.order),
            "labels": {v: [str(a) for a in lab] for v, lab in rc.labels.items()},
            "determinant": str(dualgraph.intersection_determinant(rc.graph)),
        }
    if args.verb == "xt":
        cert = dualgraph.xt_certificate(_xt_arg(args.entries))
        return {"verdict": cert.verdict, "determinant": str(cert.determinant)}
    if args.verb == "tdp":
        m1, n1, m2, n2 = _int_list(args.entries, "--entries", 4)
        return {"contractible": dualgraph.tdp_contractibility(m1, n1, m2, n2)}
    g = _graph_from_args(args)
    if args.verb == "blowup":
        site = args.site
        if "," in site:
            site = tuple(site.split(","))
            if len(site) != 2:
                raise CliError(f"--site takes a vertex id or one edge u,v, not {args.site!r}")
        return {"graph": dualgraph.graph_to_json(dualgraph.blow_up(g, site))}
    if args.verb == "contract":
        return {"graph": dualgraph.graph_to_json(dualgraph.contract(g, args.site))}
    if args.verb == "minimal":
        minimal, log = dualgraph.minimalize(g)
        return {"graph": dualgraph.graph_to_json(minimal), "contracted": log}
    if args.verb == "ramanujam":
        return {"verdict": dualgraph.ramanujam_verdict(g)}
    if args.verb == "det":
        im = dualgraph.intersection_matrix(g)
        return {
            "basis": list(im.basis),
            "matrix": [[str(x) for x in row] for row in im.entries],
            "determinant": str(im.determinant),
        }
    if args.verb == "ample":
        im = dualgraph.intersection_matrix(g)
        result = dualgraph.ample_support_divisor(im, _int_list(args.seed, "--seed"))
        return {"result": _stringify(result)}
    # dot
    return dualgraph.to_dot(g)


def _cmd_group(args):
    if args.verb == "abel":
        p = fpgroups.presentation_from_json(_json_arg(args.presentation, "--presentation"))
        ab = fpgroups.abelianization(p)
        return _stringify({"free_rank": ab.free_rank, "torsion": ab.torsion, "text": str(ab)})
    if args.verb == "snf":
        u, s, v = fpgroups.smith_normal_form(_json_arg(args.matrix, "--matrix"))
        return {
            "U": [[str(x) for x in row] for row in u],
            "S": [[str(x) for x in row] for row in s],
            "V": [[str(x) for x in row] for row in v],
        }
    if args.verb == "named":
        t = None if args.entries is None else _xt_arg(args.entries)
        p = fpgroups.named_presentation(args.name, k=args.k, l=args.l, s=args.s, t=t)
        return {
            "gens": list(p.generators),
            "rels": [list(w) for w in p.relators],
            "spelled": [p.spell(w) for w in p.relators],
        }
    if args.verb == "triangle":
        return {"class": fpgroups.triangle_classification(args.k, args.l, args.s)}
    if args.verb == "sphere":
        return {"homology_sphere": fpgroups.homology_sphere_check(args.k, args.l, args.s)}
    if args.verb == "xt":
        return {"exponent": str(fpgroups.xt_exponent(_xt_arg(args.entries)))}
    # bezout
    p, q, word = fpgroups.bezout_alpha(args.k, args.l)
    pres = fpgroups.named_presentation("bkl", k=args.k, l=args.l)
    return {"p": str(p), "q": str(q), "alpha": pres.spell(word)}


def _xt_arg(entries: str):
    return dualgraph.xt_matrix(*_int_list(entries, "--entries", 8))


def _smith_complex(args):
    source = _one_source(args, ("--json", "--model"), "complex")
    if source is None:
        raise CliError("provide a complex via --json (or --file) or --model")
    if source == "--model":
        _one_source(args, ("--model", "--action"), "action")
        return _smith_model(args.model)
    data = _json_arg(args.json, _typed(args, "--json"))
    k = smithhom.complex_from_json(data)
    if args.action is None:
        return k, smithhom.action_from_json(data["action"]) if "action" in data else None
    if "action" in data:
        raise CliError(
            f'--action and the "action" of {_typed(args, "--json")} both give the action; pass one'
        )
    return k, smithhom.action_from_json(_json_arg(args.action, "--action"))


def _smith_model(name: str):
    kind, colon, p = name.partition(":")
    p = _int_list(p, "--model", 1)[0] if colon else 3
    if kind == "disc":
        base = smithhom.polygon(p)
        k = smithhom.cone_complex(base, "apex")
        return k, smithhom.rotation_action(p, 1, extra_fixed=("apex",))
    if kind == "sphere":
        base = smithhom.polygon(p)
        k = smithhom.suspension_complex(base)
        return k, smithhom.rotation_action(p, 1, extra_fixed=("north", "south"))
    if kind == "circle":
        return smithhom.polygon(2 * p), smithhom.rotation_action(2 * p, 2)
    raise CliError(f"unknown model {name!r}; use disc:p, sphere:p or circle:p")


def _subdivided_size(k) -> int:
    """Simplices of the barycentric subdivision of k: sum_d n_d a(d), a(d) =
    1, 3, 13, 75, ... the flags of faces that end at one d-simplex."""
    flags: list[int] = []
    for d in range(len(k.simplices)):
        flags.append(1 + sum(comb(d + 1, r + 1) * flags[r] for r in range(d)))
    return sum(len(level) * n for level, n in zip(k.simplices, flags))


def _subdivided(k, action):
    """One barycentric subdivision, refused before it is made when it would
    pass smithhom.SUBDIVISION_CAP simplices."""
    size = _subdivided_size(k)
    if size > smithhom.SUBDIVISION_CAP:
        raise CliError(
            f"a subdivision would make {size} simplices, over the cap of "
            f"{smithhom.SUBDIVISION_CAP}"
        )
    return smithhom.barycentric_subdivide(k, action)


def _cmd_smith(args):
    if args.verb == "homology" and (args.subdivide or args.repair):
        raise CliError(
            f"verb homology takes no {'--subdivide' if args.subdivide else '--repair'}"
        )
    k, action = _smith_complex(args)
    if args.verb == "homology":
        coeff = "Z" if args.mod is None else args.mod
        h = smithhom.simplicial_homology(k, coeff)
        if coeff == "Z":
            return {"homology": [str(g) for g in h]}
        return {"dims": [str(d) for d in h], "mod": str(coeff)}
    if action is None:
        raise CliError(f"verb {args.verb} needs an action")
    if args.subdivide < 0:
        raise CliError(f"--subdivide takes a count of rounds, not {args.subdivide}")
    for _ in range(args.subdivide):
        k, action = _subdivided(k, action)
    if args.repair:
        k, action, rounds = smithhom.ensure_regular(k, action)
    if args.verb == "subdivide":
        k2, a2 = _subdivided(k, action)
        payload = smithhom.complex_to_json(k2)
        payload["action"] = smithhom.action_to_json(a2)
        payload["regular"] = not smithhom.check_regularity(k2, a2)
        return payload
    if args.verb == "orbit":
        x, vrep = smithhom.orbit_complex(k, action)
        return {
            "complex": smithhom.complex_to_json(x),
            "projection": vrep,
            "euler": str(x.euler_characteristic()),
        }
    if args.verb == "transfer":
        return _stringify(vars(smithhom.transfer_check(k, action, args.q)))
    # sequences
    report = smithhom.verify_smith_sequences(k, action)
    implication = {"prop4_implication_holds": report.prop4_implication_holds}
    return _stringify(vars(report) | implication)


# ---------------------------------------------------------------------------
# repro scenarios (one per acceptance criterion)


def _scenario_derksen():
    checks = []
    q = grading.russell_quotient()
    w = grading.RUSSELL_WEIGHTS
    g = grading.associated_graded_hypersurface(grading.RUSSELL_RELATION, w)
    checks.append(
        (
            "graded relation is x^2*y + z^2 + t^3, certified",
            str(g.relation_top) == "x^2*y + t^3 + z^2" and g.status.certified,
        )
    )
    a, b, c = grading.canonical_form_decomposition(
        parse_polynomial("x^2*y", q.ambient), q
    )
    checks.append(
        (
            "canonical decomposition of x^2*y",
            str(a) == "-t^3 - z^2 - x" and b.is_zero() and c.is_zero(),
        )
    )
    import random as _random

    rng = _random.Random(151)
    graded = grading.russell_graded()
    ok = True
    for i in range(-3, 6):
        for _ in range(50):
            fhat = _random_graded_element(rng, graded, i)
            if not grading.graded_component_membership(fhat, graded, i):
                ok = False
    checks.append(("graded component shapes in degrees [-3, 5]", ok))
    return checks


def _random_graded_element(rng, graded, i):
    vs = graded.ambient
    h = Polynomial.zero(vs)
    for _ in range(rng.randint(1, 3)):
        e_z, e_t = rng.randint(0, 2), rng.randint(0, 2)
        coeff = rng.randint(-3, 3)
        if coeff:
            h = h + Polynomial.monomial(vs, (0, 0, e_z, e_t), coeff)
    if h.is_zero():
        h = Polynomial.constant(vs, 1)
    if i <= 0:
        lead = Polynomial.monomial(vs, (-i, 0, 0, 0))
    elif i % 2 == 0:
        lead = Polynomial.monomial(vs, (0, i // 2, 0, 0))
    else:
        lead = Polynomial.monomial(vs, (1, (i + 1) // 2, 0, 0))
    return graded.canonical(lead * h)


def _russell_deltas():
    q = grading.russell_quotient()
    vs = q.ambient
    zero = Polynomial.zero(vs)
    d1 = derivations.make_derivation(
        q,
        {"x": zero, "y": parse_polynomial("0-2*z", vs), "z": parse_polynomial("x^2", vs), "t": zero},
    )
    d2 = derivations.make_derivation(
        q,
        {"x": zero, "y": parse_polynomial("0-3*t^2", vs), "z": zero, "t": parse_polynomial("x^2", vs)},
    )
    return q, d1, d2


def _scenario_lnd_suite():
    checks = []
    q, d1, d2 = _russell_deltas()
    cert1 = derivations.nilpotency_test(d1)
    cert2 = derivations.nilpotency_test(d2)
    checks.append(
        ("delta1 orders (x:0,t:0,z:1,y:2)", cert1.orders == {"x": 0, "t": 0, "z": 1, "y": 2})
    )
    checks.append(
        ("delta2 orders (x:0,z:0,t:1,y:3)", cert2.orders == {"x": 0, "z": 0, "t": 1, "y": 3})
    )
    w = grading.RUSSELL_WEIGHTS
    ok = True
    for d, cert in ((d1, cert1), (d2, cert2)):
        for p in derivations.kernel_elements(d, cert, 3):
            deg = grading.quotient_degree(p, q, w)
            if deg != grading.NEG_INF and deg > 0:
                ok = False
    checks.append(("kernel elements lie in F^0", ok))
    result = derivations.invariant_candidates([d1, d2], [cert1, cert2], 2)
    checks.append(
        ("ml basis is {1, x, x^2}", {str(p) for p in result.ml_basis} == {"1", "x", "x^2"})
    )
    used = set()
    for p in result.dk_generators:
        used |= p.variables_used()
    checks.append(("dk generators avoid y", {"x", "z", "t"} <= used and "y" not in used))
    return checks


def _scenario_nagata():
    from .polyring import varset

    xyz = varset("x", "y", "z")
    delta = parse_polynomial("x^2 - y*z", xyz)
    d = derivations.make_derivation(
        xyz,
        {
            "x": parse_polynomial("z", xyz) * delta,
            "y": parse_polynomial("2*x", xyz) * delta,
            "z": Polynomial.zero(xyz),
        },
    )
    cert = derivations.nilpotency_test(d)
    flow = derivations.exp_flow(d, cert, Fraction(1))
    expected_y = (
        parse_polynomial("y", xyz)
        + parse_polynomial("2*x", xyz) * delta
        + parse_polynomial("z", xyz) * delta * delta
    )
    checks = [
        (
            "flow at t=1 is the Nagata automorphism",
            flow["x"] == parse_polynomial("x", xyz) + parse_polynomial("z", xyz) * delta
            and flow["y"] == expected_y
            and flow["z"] == parse_polynomial("z", xyz),
        )
    ]
    fs = derivations.exp_flow(d, cert, "s")
    ft = derivations.exp_flow(d, cert, "t")
    combined = xyz.extend(["s", "t"])
    fs = {n: p.rename_into(combined) for n, p in fs.items()}
    ft = {n: p.rename_into(combined) for n, p in ft.items()}
    composed = derivations.compose_flows(fs, ft)
    st = parse_polynomial("s + t", combined)
    target = {}
    for name, img in ft.items():
        images = {v: Polynomial.variable(combined, v) for v in combined.names}
        images["t"] = st
        target[name] = img.substitute(images)
    checks.append(("flow group law exp(s)exp(t) = exp(s+t)", composed == target))
    return checks


def _scenario_groups():
    checks = []
    g = fpgroups.named_presentation("gkls", k=2, l=3, s=5)
    checks.append(("G(2,3,5) abelianization trivial", fpgroups.abelianization(g).trivial))
    b3 = fpgroups.Presentation(("s1", "s2"), ((1, 2, 1, -2, -1, -2),))
    ab = fpgroups.abelianization(b3)
    checks.append(("B3 abelianization is Z", ab.free_rank == 1 and not ab.torsion))
    checks.append(
        (
            "triangle trichotomy on (2,3,5),(2,3,6),(2,3,7)",
            (
                fpgroups.triangle_classification(2, 3, 5),
                fpgroups.triangle_classification(2, 3, 6),
                fpgroups.triangle_classification(2, 3, 7),
            )
            == ("Finite", "Nilpotent", "ContainsF2"),
        )
    )
    return checks


def _scenario_smith():
    checks = []
    for name in ("disc:3", "sphere:3", "circle:3", "disc:5", "sphere:5", "circle:5"):
        report = smithhom.verify_smith_sequences(*_smith_model(name))
        checks.append(
            (f"sequences exact for {name}", report.all_exact and report.special_matches_pair)
        )
        if name == "disc:3":
            disc = report
    checks.append(("prop4 instance on the disc", disc.prop4_premises and disc.prop4_conclusion))
    return checks


def _scenario_graphs():
    checks = []
    ok = all(
        dualgraph.ramanujam_verdict(dualgraph.chain_graph([-n, 0])) == "IsomorphicToC2"
        for n in range(0, 11)
    )
    checks.append(("Hirzebruch boundaries give C^2", ok))
    checks.append(
        (
            "Ramanujam surface is not C^2",
            dualgraph.ramanujam_verdict(dualgraph.ramanujam_graph()) == "NotC2",
        )
    )
    cert = dualgraph.xt_certificate(dualgraph.xt_matrix(1, 1, 1, 1, 1, 1, 1, 1))
    checks.append(("all-ones covering matrix is degenerate", cert.determinant == 0))
    return checks


def _scenario_morphism():
    images = constructions.russell_morphism_images()
    target = constructions.family("koras_russell", s1=1, s2=2, s3=3)
    return [
        (
            "dominant morphism lands on the Russell cubic",
            constructions.morphism_into_variety_check(target, images),
        )
    ]


SCENARIOS = {
    "derksen": _scenario_derksen,
    "lnd-suite": _scenario_lnd_suite,
    "nagata": _scenario_nagata,
    "groups": _scenario_groups,
    "smith": _scenario_smith,
    "graphs": _scenario_graphs,
    "morphism": _scenario_morphism,
}


def _cmd_repro(args):
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    payload = []
    for name in names:
        if name not in SCENARIOS:
            raise CliError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)} or all")
        checks = SCENARIOS[name]()
        payload.append(
            {
                "scenario": name,
                "checks": [{"name": n, "pass": ok} for n, ok in checks],
                "pass": all(ok for _, ok in checks),
            }
        )
    return payload


# ---------------------------------------------------------------------------
# the command line

FLAG = "flag"  # an option that takes no value: True when given, else False
HELP = "help"
GLOBAL = "global"  # --verbose and --pretty, which go before the command
GLOBAL_FLAGS = {"--verbose": "timing on stderr", "--pretty": "indent JSON output"}
HELP_SPELLINGS = ("-h", "--help")

# Every command: its help, its positional (name, then its choices, or its
# help when it is free text) and its options.  An option is (spellings,
# space-separated; kind; default; help): the kind is str, int, FLAG or a
# tuple of choices, and the dest is the first spelling without its dashes,
# `-` read as `_`.
COMMANDS = {
    "poly": ("polynomial arithmetic",
             ("verb", ("arith", "subst", "diff", "divide", "nf", "jacobian")), (
        ("--vars", str, "x,y,z,t", "comma-separated variable names"),
        ("-a", str, None, "first polynomial"),
        ("-b", str, None, "second polynomial"),
        ("--op", ("add", "sub", "mul", "pow"), "add", "arith operation"),
        ("-n", int, None, "exponent for pow"),
        ("--map", str, None, "JSON object variable -> polynomial (text or JSON)"),
        ("--target-vars", str, None, "varset of substitution images"),
        ("--by", str, None, "variable for diff"),
        ("--order-weights", str, None, "weights for the reduction order"),
        ("--fs", str, None, "semicolon-separated polynomials for jacobian"),
    )),
    "grade": ("weight degrees and graded structure",
              ("verb", ("degree", "decompose", "appropriate", "graded", "canonical")), (
        ("--vars", str, "x,y,z,t", "comma-separated variable names"),
        ("--poly", str, None, "the polynomial"),
        ("--weights", str, "-1,2,0,0", "comma weights or weight JSON"),
    )),
    "lnd": ("locally nilpotent derivation calculus",
            ("verb", ("check", "degree", "flow", "kernel", "graded", "invariants")), (
        ("--ring", str, None, "C2/C3/C4, russell, or JSON varset"),
        ("--images", str, None, "JSON object of generator images"),
        ("--bound", int, derivations.DEFAULT_NILPOTENCY_BOUND, "nilpotency test bound"),
        ("--poly", str, None, "element for degree"),
        ("--t", str, "t", "flow parameter (name or rational)"),
        ("--degree-bound", int, 2, "degree bound for kernel and invariants"),
        ("--weights", str, "-1,2,0,0", "comma weights or weight JSON for graded"),
    )),
    "family": ("named hypersurface families",
               ("name", "tdp, tdp_general, koras-russell, brieskorn, danielewski, "
                        "ml_suspension, sathaye_wright"), (
        ("--k", int, None, "parameter k"),
        ("--l", int, None, "parameter l"),
        ("--m", int, None, "parameter m"),
        ("--n", int, None, "parameter n"),
        ("--s", str, None, "integer or comma list (s1,s2,s3)"),
        ("--p", str, None, "polynomial for ml_suspension"),
        ("--f", str, None, "polynomial for sathaye_wright"),
        ("--g", str, None, "polynomial for sathaye_wright"),
        ("--vars", str, None, "varset for --p/--f/--g"),
    )),
    "graph": ("weighted dual graph calculus",
              ("verb", ("blowup", "contract", "minimal", "ramanujam", "chain", "det", "xt",
                        "tdp", "ample", "dot")), (
        ("--json --file", str, None, "graph JSON"),
        ("--chain", str, None, "comma weights for a linear chain"),
        ("--ramanujam", FLAG, False, "built-in Ramanujam graph"),
        ("--site", str, None, "vertex id or u,v edge"),
        ("--m", int, None, "resolution chain m"),
        ("--n", int, None, "resolution chain n"),
        ("--entries", str, None,
         "xt entries m00,n00,m10,n10,m01,n01,m11,n11 or tdp m1,n1,m2,n2"),
        ("--seed", str, None, "seed vector for ample"),
    )),
    "group": ("finitely presented group arithmetic",
              ("verb", ("abel", "snf", "named", "triangle", "sphere", "xt", "bezout")), (
        ("--presentation", str, None, 'JSON {"gens": [...], "rels": [[...]]}'),
        ("--matrix", str, None, "JSON integer matrix"),
        ("--name", str, None, "bkl, bkls, gkls, tkls, b3quot, xtquot"),
        ("--k", int, None, "parameter k"),
        ("--l", int, None, "parameter l"),
        ("--s", int, None, "parameter s"),
        ("--entries", str, None, "xt entries"),
    )),
    "smith": ("Smith theory on simplicial complexes",
              ("verb", ("homology", "orbit", "transfer", "sequences", "subdivide")), (
        ("--json --file", str, None, "complex JSON, with or without an action"),
        ("--action", str, None, "action JSON"),
        ("--model", str, None, "disc:p, sphere:p or circle:p"),
        ("--mod", int, None, "prime coefficient field"),
        ("--q", int, 2, "transfer prime"),
        ("--subdivide", int, 0, "subdivide n times first"),
        ("--repair", FLAG, False, "subdivide until regular"),
    )),
    "repro": ("named acceptance scenarios",
              ("name", f"one of {', '.join(sorted(SCENARIOS))} or all"), ()),
}


@functools.cache
def build_parser() -> dict:
    """The reader's lookup, built once per process from COMMANDS: for each
    command, its positional, every option spelling (-h, --help and the
    global flags too) with its (dest, kind, aliased), and the defaults."""
    lookup = {}
    for command, (_, positional, options) in COMMANDS.items():
        spellings = dict.fromkeys(HELP_SPELLINGS, ("", HELP, False))
        spellings.update(dict.fromkeys(GLOBAL_FLAGS, ("", GLOBAL, False)))
        defaults = {positional[0]: None}
        for names, kind, default, _ in options:
            names = names.split()
            dest = names[0].lstrip("-").replace("-", "_")
            defaults[dest] = default
            spellings.update(dict.fromkeys(names, (dest, kind, len(names) > 1)))
        lookup[command] = (positional, spellings, defaults)
    return lookup


def _usage_error(command, message: str):
    """Print the usage and the error on stderr; exit 2."""
    if command is None:
        usage, prog = f"exotic [--verbose] [--pretty] {{{','.join(COMMANDS)}}} ...", "exotic"
    else:
        name, choices = COMMANDS[command][1]
        what = f"{{{','.join(choices)}}}" if isinstance(choices, tuple) else f"<{name}>"
        usage, prog = f"exotic {command} {what} [options]", f"exotic {command}"
    print(f"usage: {usage}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _print_help(command):
    """The commands and global flags, or one command's positional and
    options, on stdout; exit 0."""
    if command is None:
        lines = ["usage: exotic [--verbose] [--pretty] <command> ...\n\n"
                 "Exact computer algebra for exotic affine structures\n",
                 "commands (exotic <command> --help lists the options of one):"]
        for name, (text, (_, choices), _) in COMMANDS.items():
            lines.append(f"  {name:<8}{text}")
            if isinstance(choices, tuple):
                lines.append(f"  {'':<8}{', '.join(choices)}")
        lines.append("\noptions:")
        lines += [f"  {flag:<26}{text}" for flag, text in GLOBAL_FLAGS.items()]
    else:
        text, (name, choices), options = COMMANDS[command]
        lines = [f"usage: exotic {command} <{name}> [options]\n\n{text}\n"]
        if isinstance(choices, tuple):
            lines.append(f"{name}: {', '.join(choices)}")
        else:
            lines.append(f"{name}: {choices}")
        lines.append("\noptions:")
        for names, kind, default, help_text in options:
            value = ("" if kind is FLAG else " INT" if kind is int else " TEXT" if kind is str
                     else f" {{{','.join(kind)}}}")
            shown = "" if default in (None, False) else f" (default {default})"
            lines.append(f"  {', '.join(names.split()) + value:<26}{help_text}{shown}")
    lines.append(f"  {'-h, --help':<26}this help\n\n"
                 "A JSON option takes inline JSON, a file path, or - for stdin.")
    print("\n".join(lines))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read against COMMANDS: the global flags, the command, then its
    positional and its options in any order.  The namespace holds every
    dest of the command (its default unless given; a repeated option keeps
    its last value), and `<dest>_typed` holds the spelling that gave an
    option with two.  The word after an option is its value unless it is
    one of the command's option spellings; `--opt=value` and `-avalue`
    also give one."""
    lookup = build_parser()
    args = {"verbose": False, "pretty": False}
    for i, word in enumerate(argv):
        if word in GLOBAL_FLAGS:
            args[word[2:]] = True
        elif word in HELP_SPELLINGS:
            _print_help(None)
        elif word in lookup:
            args["command"] = word
            args.update(_read_command(word, lookup[word], argv[i + 1:]))
            return SimpleNamespace(**args)
        elif word[:1] == "-":
            _usage_error(None, f"unknown option {word}")
        else:
            _usage_error(None, f"unknown command {word!r}; choose from {', '.join(COMMANDS)}")
    _usage_error(None, "a command is needed")


_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _option_word(command: str, word: str, spellings: dict):
    """(spelling, the value the word itself gives or None) of an option
    word, or (None, None) for a positional: a word that does not begin with
    `-`, `-` itself, a negative number or text with a blank."""
    if word in spellings:
        return word, None
    if word[:1] != "-" or word == "-":
        return None, None
    spelling, eq, value = word.partition("=")
    if eq and spelling in spellings:
        return spelling, value
    if word[1] != "-" and word[:2] in spellings:
        return word[:2], word[2:]  # -avalue
    if " " in word or _NEGATIVE_NUMBER.fullmatch(word):
        return None, None
    _usage_error(command, f"unknown option {word}")


def _read_command(command: str, spec, words: list[str]) -> dict:
    (name, choices), spellings, defaults = spec
    values = dict(defaults)
    i, n, options_end = 0, len(words), False
    while i < n:
        word = words[i]
        i += 1
        if word == "--" and not options_end:
            options_end = True  # every later word is a positional
            continue
        spelling, value = (None, None) if options_end else _option_word(command, word, spellings)
        if spelling is None:
            if values[name] is not None:
                _usage_error(command, f"extra word {word!r}")
            if isinstance(choices, tuple) and word not in choices:
                _usage_error(command, f"unknown {name} {word!r}; choose from {', '.join(choices)}")
            values[name] = word
            continue
        dest, kind, aliased = spellings[spelling]
        if kind is GLOBAL:
            _usage_error(command, f"{spelling} goes before the command")
        if kind is HELP or kind is FLAG:
            if value is not None:
                _usage_error(command, f"{spelling} takes no value")
            if kind is HELP:
                _print_help(command)
            values[dest] = True
            continue
        if value is None:
            if i == n or words[i] in spellings or words[i].partition("=")[0] in spellings:
                _usage_error(command, f"{spelling} needs a value")
            value = words[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"{spelling} takes an integer, not {value!r}")
        elif kind is not str and value not in kind:
            _usage_error(command, f"{spelling} takes one of {', '.join(kind)}, not {value!r}")
        values[dest] = value
        if aliased:
            values[f"{dest}_typed"] = spelling
    if values[name] is None:
        _usage_error(command, f"a {name} is needed")
    return values


# Bad input; any other exception is a bug.
DOMAIN_ERRORS = (
    polyring.PolyError, dualgraph.GraphError, fpgroups.GroupError, smithhom.SmithError, CliError
)


HANDLERS = {
    "poly": _cmd_poly, "grade": _cmd_grade, "lnd": _cmd_lnd, "family": _cmd_family,
    "graph": _cmd_graph, "group": _cmd_group, "smith": _cmd_smith, "repro": _cmd_repro,
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    start = time.monotonic()
    try:
        _check_options(args)
        payload = HANDLERS[args.command](args)
    except DOMAIN_ERRORS as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    except Exception as exc:  # a bug, never reported as bad input
        import traceback

        traceback.print_exc()
        print(json.dumps({"error": f"InternalError: {type(exc).__name__}: {exc}"}))
        return 3
    indent = 2 if args.pretty else None
    print(payload if isinstance(payload, str) else json.dumps(payload, indent=indent))
    if args.verbose:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
