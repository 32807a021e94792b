"""The argparse spec the `exotic` command line was read with before its one
option table, kept as the oracle that exoticaffine.cli.parse_args is
compared against.

Three differences are intended, and each has its own test row: the reader
refuses abbreviated options (argparse's subparsers took `--deg` for
`--degree-bound`), takes a value that begins with `-` unless it is one of
the command's own option spellings, and leaves a missing `grade --poly` to
the REQUIRED table (exit 1 with a JSON error, not exit 2)."""

import argparse

from exoticaffine import derivations
from exoticaffine.cli import SCENARIOS


class _Alias(argparse.Action):
    """Store an option's value and, in `<dest>_typed`, the spelling it was
    given by: argparse keeps one dest for `--json` and its alias `--file`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_typed", option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exotic",
        description="Exact computer algebra for exotic affine structures",
        epilog="A JSON option takes inline JSON, a file path, or - for stdin.",
        allow_abbrev=False,
    )
    parser.add_argument("--verbose", action="store_true", help="timing on stderr")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="polynomial arithmetic")
    poly.add_argument("verb", choices=["arith", "subst", "diff", "divide", "nf", "jacobian"])
    poly.add_argument("--vars", default="x,y,z,t")
    poly.add_argument("-a", help="first polynomial")
    poly.add_argument("-b", help="second polynomial")
    poly.add_argument("--op", choices=["add", "sub", "mul", "pow"], default="add")
    poly.add_argument("-n", type=int, help="exponent for pow")
    poly.add_argument("--map", help="JSON object variable -> polynomial (text or JSON)")
    poly.add_argument("--target-vars", help="varset of substitution images")
    poly.add_argument("--by", help="variable for diff")
    poly.add_argument("--order-weights", help="weights for the reduction order")
    poly.add_argument("--fs", help="semicolon-separated polynomials for jacobian")

    grade = sub.add_parser("grade", help="weight degrees and graded structure")
    grade.add_argument("verb", choices=["degree", "decompose", "appropriate", "graded", "canonical"])
    grade.add_argument("--vars", default="x,y,z,t")
    grade.add_argument("--poly", required=True)
    grade.add_argument("--weights", default="-1,2,0,0")

    lnd = sub.add_parser("lnd", help="locally nilpotent derivation calculus")
    lnd.add_argument("verb", choices=["check", "degree", "flow", "kernel", "graded", "invariants"])
    lnd.add_argument("--ring", help="C2/C3/C4, russell, or JSON varset")
    lnd.add_argument("--images", help="JSON object of generator images")
    lnd.add_argument("--bound", type=int, default=derivations.DEFAULT_NILPOTENCY_BOUND)
    lnd.add_argument("--poly", help="element for degree")
    lnd.add_argument("--t", default="t", help="flow parameter (name or rational)")
    lnd.add_argument("--degree-bound", type=int, default=2)
    lnd.add_argument("--weights", default="-1,2,0,0")

    family = sub.add_parser("family", help="named hypersurface families")
    family.add_argument("name", help="tdp, tdp_general, koras-russell, brieskorn, danielewski, ml_suspension, sathaye_wright")
    family.add_argument("--k", type=int)
    family.add_argument("--l", type=int)
    family.add_argument("--m", type=int)
    family.add_argument("--n", type=int)
    family.add_argument("--s", help="integer or comma list (s1,s2,s3)")
    family.add_argument("--p", help="polynomial for ml_suspension")
    family.add_argument("--f", help="polynomial for sathaye_wright")
    family.add_argument("--g", help="polynomial for sathaye_wright")
    family.add_argument("--vars", help="varset for --p/--f/--g")

    graph = sub.add_parser("graph", help="weighted dual graph calculus")
    graph.add_argument("verb", choices=["blowup", "contract", "minimal", "ramanujam", "chain", "det", "xt", "tdp", "ample", "dot"])
    graph.add_argument("--json", "--file", action=_Alias, help="graph JSON")
    graph.add_argument("--chain", help="comma weights for a linear chain")
    graph.add_argument("--ramanujam", action="store_true", help="built-in Ramanujam graph")
    graph.add_argument("--site", help="vertex id or u,v edge")
    graph.add_argument("--m", type=int, help="resolution chain m")
    graph.add_argument("--n", type=int, help="resolution chain n")
    graph.add_argument("--entries", help="xt entries m00,n00,m10,n10,m01,n01,m11,n11 or tdp m1,n1,m2,n2")
    graph.add_argument("--seed", help="seed vector for ample")

    group = sub.add_parser("group", help="finitely presented group arithmetic")
    group.add_argument("verb", choices=["abel", "snf", "named", "triangle", "sphere", "xt", "bezout"])
    group.add_argument("--presentation", help='JSON {"gens": [...], "rels": [[...]]}')
    group.add_argument("--matrix", help="JSON integer matrix")
    group.add_argument("--name", help="bkl, bkls, gkls, tkls, b3quot, xtquot")
    group.add_argument("--k", type=int)
    group.add_argument("--l", type=int)
    group.add_argument("--s", type=int)
    group.add_argument("--entries", help="xt entries")

    smith = sub.add_parser("smith", help="Smith theory on simplicial complexes")
    smith.add_argument("verb", choices=["homology", "orbit", "transfer", "sequences", "subdivide"])
    smith.add_argument("--json", "--file", action=_Alias,
                       help="complex JSON, with or without an action")
    smith.add_argument("--action", help="action JSON")
    smith.add_argument("--model", help="disc:p, sphere:p or circle:p")
    smith.add_argument("--mod", type=int, help="prime coefficient field")
    smith.add_argument("--q", type=int, default=2, help="transfer prime")
    smith.add_argument("--subdivide", type=int, default=0, help="subdivide n times first")
    smith.add_argument("--repair", action="store_true", help="subdivide until regular")

    repro = sub.add_parser("repro", help="named acceptance scenarios")
    repro.add_argument("name", help=f"one of {sorted(SCENARIOS)} or all")
    return parser
