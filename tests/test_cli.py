"""CLI dispatch: JSON output, exit codes, determinism."""

import hashlib
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import argparse_oracle
from exoticaffine import cli, dualgraph, linalg, smithhom
from exoticaffine.cli import main
from exoticaffine.polyring import varset
from test_fpgroups import rank_deficient_matrix
from test_polyring import random_poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import CHAIN_LENGTHS, WORKLOADS, chain_pair, generate  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_triangle(self, capsys):
        code, out = run_cli(capsys, "group", "triangle", "--k", "2", "--l", "3", "--s", "5")
        assert code == 0
        assert json.loads(out) == {"class": "Finite"}

    def test_ramanujam_builtin(self, capsys):
        code, out = run_cli(capsys, "graph", "ramanujam", "--ramanujam")
        assert code == 0
        assert json.loads(out) == {"verdict": "NotC2"}

    def test_hirzebruch_chain(self, capsys):
        code, out = run_cli(capsys, "graph", "ramanujam", "--chain=-4,0")
        assert code == 0
        assert json.loads(out) == {"verdict": "IsomorphicToC2"}

    def test_graph_file_roundtrip(self, capsys, tmp_path):
        payload = {
            "vertices": [{"id": "a", "w": -1}, {"id": "b", "w": -2}],
            "edges": [["a", "b"]],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "graph", "det", "--file", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["determinant"] == "1"

    def test_poly_arith(self, capsys):
        code, out = run_cli(
            capsys, "poly", "arith", "--op", "mul", "-a", "x-1", "-b", "x+1", "--vars", "x"
        )
        assert code == 0
        assert json.loads(out)["text"] == "x^2 - 1"

    def test_grade_degree(self, capsys):
        code, out = run_cli(capsys, "grade", "degree", "--poly", "x")
        assert code == 0
        assert json.loads(out) == {"degree": "-1"}

    def test_lnd_flow_nagata(self, capsys, tmp_path):
        images = {"images": {"x": "z*(x^2-y*z)", "y": "2*x*(x^2-y*z)", "z": "0"}}
        path = tmp_path / "nagata.json"
        path.write_text(json.dumps(images))
        code, out = run_cli(
            capsys, "lnd", "flow", "--ring", "C3", "--images", str(path), "--t", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["x"]["text"] == "x^2*z - y*z^2 + x"
        assert data["z"]["text"] == "z"

    def test_family_koras_russell(self, capsys):
        code, out = run_cli(capsys, "family", "koras-russell", "--s", "1,2,3")
        assert code == 0
        data = json.loads(out)
        assert data["defining"]["text"] == "x^2*y + t^3 + z^2 + x"

    def test_family_tdp(self, capsys):
        code, out = run_cli(capsys, "family", "tdp", "--k", "3", "--l", "2")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"]["family"] == "tdp"

    def test_group_bezout(self, capsys):
        code, out = run_cli(capsys, "group", "bezout", "--k", "2", "--l", "3")
        assert code == 0
        data = json.loads(out)
        assert (data["p"], data["q"]) == ("-1", "1")

    def test_smith_homology_model(self, capsys):
        code, out = run_cli(capsys, "smith", "homology", "--model", "sphere:3")
        assert code == 0
        assert json.loads(out)["homology"] == ["Z", "0", "Z"]

    @pytest.mark.parametrize(
        "model, p, rounds, dims",
        [("sphere:3", "3", "2", ["0", "1", "1"]), ("circle:5", "5", "1", ["1", "1"])],
        ids=["sphere:3", "circle:5"],
    )
    def test_smith_sequences_model(self, capsys, model, p, rounds, dims):
        code, out = run_cli(capsys, "smith", "sequences", "--model", model)
        assert code == 0
        assert json.loads(out) == {
            "p": p,
            "subdivisions_for_quotient": rounds,
            "ses_exact": True,
            "les_rho_exact": True,
            "les_tau_exact": True,
            "special_matches_pair": True,
            "special_dims_sigma": dims,
            "pair_dims": dims,
            "prop4_premises": False,
            "prop4_conclusion": False,
            "prop4_implication_holds": True,
        }

    def test_smith_orbit_with_repair(self, capsys):
        code, out = run_cli(
            capsys, "smith", "orbit", "--model", "circle:3", "--repair"
        )
        assert code == 0
        assert json.loads(out)["euler"] == "0"

    def test_graph_dot(self, capsys):
        code, out = run_cli(capsys, "graph", "dot", "--chain=-1,-2")
        assert code == 0
        assert out.startswith("graph dualgraph {")


class TestMoreVerbs:
    def test_poly_subst_images_in_another_ring(self, capsys):
        code, out = run_cli(capsys, "poly", "subst", "-a", "x*y + 1", "--vars", "x,y",
                            "--map", '{"x": "u + v", "y": "u"}', "--target-vars", "u,v")
        assert code == 0
        assert json.loads(out) == {
            "vars": ["u", "v"],
            "terms": [{"c": "1", "e": [2, 0]}, {"c": "1", "e": [1, 1]}, {"c": "1", "e": [0, 0]}],
            "text": "u^2 + u*v + 1",
        }

    def test_lnd_check_small_bound_is_inconclusive(self, capsys):
        # z -> y -> x -> 0 dies after two steps: a bound of 1 cannot see it
        argv = ["lnd", "check", "--ring", "C3", "--images", '{"x": "0", "y": "x", "z": "y"}']
        code, out = run_cli(capsys, *argv, "--bound", "1")
        assert (code, json.loads(out)["verdict"], json.loads(out)["bound"]) == (
            0, "Inconclusive", "1")
        code, out = run_cli(capsys, *argv, "--bound", "2")
        assert (code, json.loads(out)["orders"]) == (0, {"x": "0", "y": "1", "z": "2"})

    def test_lnd_check_bound_zero_is_printed(self, capsys):
        # 0 is a bound, not a missing one; and a ring without variables
        # has an empty set of orders, not none
        argv = ["lnd", "check", "--ring", "C3", "--images", '{"x": "0", "y": "x", "z": "y"}']
        code, out = run_cli(capsys, *argv, "--bound", "0")
        assert (code, json.loads(out)["bound"]) == (0, "0")
        code, out = run_cli(capsys, "lnd", "check", "--ring", "C0", "--images", "{}")
        assert (code, json.loads(out)["orders"]) == (0, {})

    def test_verbose_times_on_stderr_only(self, capsys):
        argv = ["poly", "jacobian", "--vars", "x,y", "--fs", "x^2 + y;x*y"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == plain.out and plain.err == ""
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", verbose.err)

    def test_family_tdp_general(self, capsys):
        code, out = run_cli(
            capsys, "family", "tdp_general", "--k", "3", "--l", "2", "--s", "5", "--m", "5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ambient"] == ["x", "y", "z"]

    def test_family_ml_suspension(self, capsys):
        code, out = run_cli(
            capsys, "family", "ml_suspension", "--p", "x^2 - y^3", "--vars", "x,y"
        )
        assert code == 0
        assert json.loads(out)["defining"]["text"] == "y^3 - x^2 + u*v"

    def test_grade_decompose(self, capsys):
        code, out = run_cli(
            capsys, "grade", "decompose", "--poly", "x + x^2*y + z^2 + t^3"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data["components"]) == {"-1", "0"}
        assert data["principal"]["text"] == "x^2*y + t^3 + z^2"

    def test_grade_appropriate(self, capsys):
        code, out = run_cli(
            capsys, "grade", "appropriate", "--poly", "x + x^2*y + z^2 + t^3"
        )
        assert code == 0
        assert json.loads(out)["status"] == "Certified"

    @pytest.mark.parametrize("poly", ["x^2 + y^2 + x", "2*x^2 + y^2 + x"])
    def test_grade_appropriate_splitting_over_c_is_unverified(self, capsys, poly):
        # the principal part x^2 + y^2 (or 2x^2 + y^2) factors over C
        code, out = run_cli(
            capsys, "grade", "appropriate", "--vars", "x,y", "--weights", "1,1", "--poly", poly
        )
        assert code == 0
        assert json.loads(out) == {
            "status": "Unverified",
            "reason": "irreducibility of the principal part unproven (no certifying pattern matched)",
        }

    @pytest.mark.parametrize(
        "poly", ["2*x^2 + 4*x*y + 2*y^2 + x", "0 - x^2 - 2*x*y - y^2 + x", "x^2 + 2*x*y + y^2 + x"]
    )
    def test_grade_appropriate_constant_times_square_fails(self, capsys, poly):
        # 2 (x + y)^2, -(x + y)^2 and (x + y)^2 are all squares over C
        code, out = run_cli(
            capsys, "grade", "appropriate", "--vars", "x,y", "--weights", "1,1", "--poly", poly
        )
        assert code == 0
        assert json.loads(out) == {"status": "Failed", "reason": "principal part is a perfect square"}

    def test_lnd_check_and_kernel(self, capsys):
        images = json.dumps({"images": {"y": "0-2*z", "z": "x^2"}})
        code, out = run_cli(capsys, "lnd", "check", "--ring", "russell", "--images", images)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "NilpotentOnGenerators"
        assert data["orders"] == {"x": "0", "y": "2", "z": "1", "t": "0"}
        code, out = run_cli(
            capsys, "lnd", "kernel", "--ring", "russell", "--images", images,
            "--degree-bound", "1",
        )
        assert code == 0
        texts = [b["text"] for b in json.loads(out)["basis"]]
        assert "x" in texts and "t" in texts

    def test_lnd_graded(self, capsys):
        images = json.dumps({"images": {"y": "0-2*z", "z": "x^2"}})
        code, out = run_cli(
            capsys, "lnd", "graded", "--ring", "russell", "--images", images
        )
        assert code == 0
        data = json.loads(out)
        assert data["shift"] == "-2"
        assert data["images"]["z"]["text"] == "x^2"

    def test_group_named_and_snf(self, capsys):
        code, out = run_cli(
            capsys, "group", "named", "--name", "bkls", "--k", "2", "--l", "3", "--s", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["spelled"][0] == "a^2*b^-3"
        code, out = run_cli(capsys, "group", "snf", "--matrix", "[[3,2],[-1,-1]]")
        assert code == 0
        data = json.loads(out)
        assert data["S"] == [["1", "0"], ["0", "1"]]

    def test_group_abel_json(self, capsys):
        pres = json.dumps({"gens": ["a", "b"], "rels": [[1, 1, -2, -2, -2]]})
        code, out = run_cli(capsys, "group", "abel", "--presentation", pres)
        assert code == 0
        assert json.loads(out)["text"] == "Z"

    def test_smith_transfer_model(self, capsys):
        code, out = run_cli(
            capsys, "smith", "transfer", "--model", "circle:3", "--repair", "--q", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pi_mu_is_s_on_homology"] is True
        assert data["mu_pi_is_sigma_on_homology"] is True

    @pytest.mark.parametrize(
        "model, dims",
        [("sphere:3", ["1", "0", "1"]), ("disc:3", ["1", "0", "0"]), ("circle:3", ["1", "1"])],
    )
    def test_smith_transfer_model_every_field(self, capsys, model, dims):
        code, out = run_cli(
            capsys, "smith", "transfer", "--model", model, "--repair", "--q", "2"
        )
        assert code == 0
        assert json.loads(out) == {
            "group_order": "3",
            "prime": "2",
            "mu_is_chain_map": True,
            "chain_level_pi_mu_is_s": True,
            "action_homologically_trivial": True,
            "pi_mu_is_s_on_homology": True,
            "mu_pi_is_sigma_on_homology": True,
            "projection_iso_on_homology": True,
            "homology_dims_y": dims,
            "homology_dims_x": dims,
        }

    def test_smith_subdivide(self, capsys):
        code, out = run_cli(capsys, "smith", "subdivide", "--model", "circle:3")
        assert code == 0
        data = json.loads(out)
        assert data["regular"] is True

    def test_graph_xt_and_tdp(self, capsys):
        code, out = run_cli(
            capsys, "graph", "xt", "--entries", "2,1,1,1,1,1,1,1"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Acyclic"
        code, out = run_cli(capsys, "graph", "tdp", "--entries", "3,2,2,1")
        assert code == 0
        assert json.loads(out)["contractible"] is True

    def test_graph_ample(self, capsys):
        payload = json.dumps(
            {"vertices": [{"id": "a", "w": 0}, {"id": "b", "w": -1}], "edges": [["a", "b"]]}
        )
        code, out = run_cli(
            capsys, "graph", "ample", "--json", payload, "--seed", "1,0"
        )
        assert code == 0
        assert json.loads(out)["result"] == ["2", "1"]

    def test_graph_blowup_contract_minimal(self, capsys):
        code, out = run_cli(capsys, "graph", "blowup", "--chain=-2,0", "--site", "v1")
        assert code == 0
        data = json.loads(out)["graph"]
        assert {"id": "e1", "w": -1} in data["vertices"]
        assert {"id": "v1", "w": -3} in data["vertices"]
        code, out = run_cli(capsys, "graph", "blowup", "--chain=-2,0", "--site", "v1,v2")
        assert code == 0
        inner = json.loads(out)["graph"]
        assert ["e1", "v1"] in inner["edges"] and ["e1", "v2"] in inner["edges"]
        code, out = run_cli(capsys, "graph", "contract", "--json", json.dumps(inner),
                            "--site", "e1")
        assert code == 0
        assert json.loads(out)["graph"]["vertices"] == [
            {"id": "v1", "w": -2}, {"id": "v2", "w": 0}
        ]
        code, out = run_cli(capsys, "graph", "minimal", "--chain=-2,-1,-2")
        assert code == 0
        data = json.loads(out)
        assert data["contracted"] == ["v2", "v1"]

    def test_absent_edge_named_under_any_hash_seed(self):
        # the endpoints are printed sorted, whatever order the set holds them in
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "exoticaffine.cli", "graph", "blowup", "--chain=1",
                 "--site", "v2,v1"],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {
            json.dumps({"error": "UnknownSite: edge {'v1', 'v2'} not in graph"}) + "\n"
        }

    def test_lnd_degree_and_invariants(self, capsys):
        images = json.dumps({"images": {"y": "0-2*z", "z": "x^2"}})
        code, out = run_cli(
            capsys, "lnd", "degree", "--ring", "russell", "--images", images,
            "--poly", "y",
        )
        assert code == 0
        assert json.loads(out)["deg"] == "2"
        code, out = run_cli(
            capsys, "lnd", "invariants", "--ring", "russell", "--images", images,
            "--degree-bound", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert "upper bound" in data["ml_semantics"]

    def test_group_sphere_and_xt(self, capsys):
        code, out = run_cli(capsys, "group", "sphere", "--k", "2", "--l", "3", "--s", "5")
        assert code == 0
        assert json.loads(out)["homology_sphere"] is True
        code, out = run_cli(capsys, "group", "xt", "--entries", "2,1,1,1,1,1,1,1")
        assert code == 0
        assert json.loads(out)["exponent"] == "1"

    def test_poly_jacobian(self, capsys):
        code, out = run_cli(
            capsys, "poly", "jacobian", "--vars", "x,y", "--fs", "x;x^2*y"
        )
        assert code == 0
        assert json.loads(out)["text"] == "x^2"


class TestErrorsAndDeterminism:
    def test_domain_error_exit_one(self, capsys):
        code, out = run_cli(capsys, "poly", "divide", "-a", "x^2+1", "-b", "x", "--vars", "x")
        assert code == 1
        assert "NotDivisible" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["poly", "arith", "--vars", "x,x", "-a", "x", "-b", "x", "--op", "add"],
                "InvalidVarSet: duplicate variable names in ('x', 'x')",
            ),
            (
                ["poly", "arith", "--vars", "x", "-a", "x", "--op", "pow"],
                "NegativeExponent: pow needs a non-negative integer exponent",
            ),
            (
                ["grade", "appropriate", "--vars", "x,y", "--weights", "1", "--poly", "x"],
                "WeightCountMismatch: one weight per variable required",
            ),
        ],
    )
    def test_package_value_errors_exit_one(self, capsys, argv, error):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("k, l", [("1", "0"), ("0", "3")])
    def test_bezout_non_positive_is_a_domain_error(self, capsys, k, l):
        code, out = run_cli(capsys, "group", "bezout", f"--k={k}", f"--l={l}")
        assert code == 1
        assert json.loads(out) == {"error": "InvalidParams: parameters must be positive integers"}

    @pytest.mark.parametrize("order", [3, 0, -3])
    @pytest.mark.parametrize(
        "verb",
        [("orbit", "--repair"), ("transfer", "--repair"), ("subdivide",)],
        ids=["orbit", "transfer", "subdivide"],
    )
    def test_wrong_action_order_refused(self, capsys, verb, order):
        # an involution of the 4-cycle, declared with an order it does not have
        square = {
            "simplices": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            "action": {"order": order, "perm": {"a": "c", "c": "a", "b": "d", "d": "b"}},
        }
        code, out = run_cli(capsys, "smith", verb[0], *verb[1:], "--json", json.dumps(square))
        assert code == 1
        assert json.loads(out)["error"] == (
            "SmithError: generator does not have order dividing 3"
            if order == 3
            else f"SmithError: group order {order} is not positive"
        )

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["group", "nonesuch"])
        assert exc.value.code == 2

    def test_byte_identical_output(self, capsys):
        _, first = run_cli(capsys, "graph", "chain", "--m", "5", "--n", "3")
        _, second = run_cli(capsys, "graph", "chain", "--m", "5", "--n", "3")
        assert first == second

    def test_repro_scenario(self, capsys):
        code, out = run_cli(capsys, "repro", "graphs")
        assert code == 0
        data = json.loads(out)
        assert data[0]["pass"] is True

    def test_repro_unknown(self, capsys):
        code, out = run_cli(capsys, "repro", "nonesuch")
        assert code == 1

    def test_step_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EXOTIC_STEP_BUDGET", "1")
        code, out = run_cli(
            capsys,
            "poly",
            "nf",
            "-a",
            "x^4*y^2",
            "-b",
            "x + x^2*y + z^2 + t^3",
            "--order-weights",
            "1,3,0,0",
        )
        assert code == 1
        assert "NonTerminatingOrder" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "matrix", ['[[1,2],[3]]', '[["a"]]', "5", "[[1.5,2]]", "[[true,2],[3,4]]"]
    )
    def test_malformed_snf_matrix_is_wrong_shape(self, capsys, matrix):
        code, out = run_cli(capsys, "group", "snf", "--matrix", matrix)
        assert code == 1
        assert json.loads(out)["error"].startswith("WrongShape: ")

    def test_empty_snf_matrices(self, capsys):
        assert json.loads(run_cli(capsys, "group", "snf", "--matrix", "[]")[1]) == {
            "U": [], "S": [], "V": []
        }
        assert json.loads(run_cli(capsys, "group", "snf", "--matrix", "[[]]")[1]) == {
            "U": [["1"]], "S": [[]], "V": []
        }


class TestParserReuse:
    """main() builds the parser once per process; reusing it across calls,
    a usage error included, must print what fresh parsers print."""

    SEQUENCE = [
        ("group", "triangle", "--k", "2", "--l", "3", "--s", "5"),
        ("graph", "chain", "--m", "5", "--n", "3"),
        ("group", "nonesuch"),
        ("poly", "divide", "-a", "x^2+1", "-b", "x", "--vars", "x"),
        ("--pretty", "smith", "homology", "--model", "disc:3", "--mod", "3"),
        ("repro", "graphs"),
    ]

    def outcomes(self, capsys, fresh):
        out = []
        for argv in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_shared_parser_matches_fresh_parsers(self, capsys):
        fresh = self.outcomes(capsys, fresh=True)
        shared = self.outcomes(capsys, fresh=False)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 1, 0, 0]
        assert cli.build_parser() is cli.build_parser()


# sha256 of the stdout of `exotic smith <verb> --model <model>`, pinned when
# barycentric subdivision and the regularity check were last rewritten
def test_cold_import_loads_no_dataclasses_or_typing():
    """Every `exotic` call is a fresh process that imports the whole CLI, so
    the package builds its value classes by hand: under -I -S (no site
    module to preload anything) importing it must load neither dataclasses
    (with inspect, about 8 ms, and about 16 ms of generated methods) nor
    typing (12-17 ms)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import exoticaffine.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


PINNED_SMITH_STDOUT = {
    ("subdivide", "disc:3"): "634084351dc0d5ce34b677a08c65b609f4601a07ac9780e2c5b51c861e928651",
    ("orbit", "disc:3"): "58cf03e7582e2703d437b77e8a49197897cdb981c2ff59f8c08b4452b2c6731d",
    ("transfer", "disc:3"): "8ce990e3851d067a083fa2a9a75c1bb98ecf9ab89835332a8ba7d39862c3838c",
    ("subdivide", "disc:5"): "427ac4dc96850e546306038d24c3167f444c5ecd460bae2b3e560c1e37fca288",
    ("orbit", "disc:5"): "bec6374d97a73ea80953ca8d82174263fd54af9a627cc3afe55a07c3d1ecbe63",
    ("transfer", "disc:5"): "6de14317a24da1901b3f880de9f2852190186a4ab71835c4cd8180cd936e6184",
    ("subdivide", "sphere:3"): "caa2a62b0b6832dc0040e0363bbbd8c05d7d6005aeec3d67182f43aef5414dd9",
    ("orbit", "sphere:3"): "837aa70d4ccd06b4285f29c2678eeba0f634ee7c8576214d03b8bd9bd0a9dfe4",
    ("transfer", "sphere:3"): "fffc5dfb24030021f914b4f3660513bc0941f89a5f7574ce13d4b0029ee56d79",
    ("subdivide", "sphere:5"): "16f21cff107512d146a848a145b6bf9d1f76aff38af8fa6101a640f96b570e46",
    ("orbit", "sphere:5"): "f0e3fcb2c7f4c8b3c8e61cf4824da21ff42ccdcf1f1beaf1e8eab2992fb8f9de",
    ("transfer", "sphere:5"): "137d97d834705391c90a3d3c404f326f19111bf2df954eb2221058f6c986f8e8",
    ("subdivide", "circle:3"): "53f63b4a65bdd9168a0cdc71b985ebacc204fa866bb4cd28d08c9e542476fa46",
    ("orbit", "circle:3"): "095b51b113976e6feaef7dd82d4640f9c61b33ba146bf2aee4fdc3b642caef6d",
    ("transfer", "circle:3"): "7c4509c4e493a7642a4bd2ae7deec971513fd5088a4755b63b05834ae227336e",
    ("subdivide", "circle:5"): "4811d42ecdbcf8ccea10d308c9109eaec427b159973ee32b4b3392aec9f67671",
    ("orbit", "circle:5"): "0988bda827c1101e0c95c3ab5cb68b50c3100759902fae56a3e98908d34ff181",
    ("transfer", "circle:5"): "35f07c1a07ca4c55020e6de63c5453727a6818af29813b72c14f003517ae2e1b",
    # `smith sequences --repair`, pinned before the sequences moved to
    # orbit-shift coordinates
    ("sequences", "disc:3"): "cb859ed1362c5ad40b170a09d2799521772f4d5fd36ed6f17f1f14e89830aeae",
    ("sequences", "disc:5"): "d34a25257fe2b32722153eb646ad6e5786328167c8414c69849db2eca424948b",
    ("sequences", "sphere:3"): "ca583369e6cabdbb63cd887390bdcd6e2126755e4d2968a7633b4152cdb189c4",
    ("sequences", "sphere:5"): "a08568878082bba9339369c320c4b76271541e12ce390fdec1eeeac64eaeb1c4",
    ("sequences", "sphere:7"): "674a16b149607102aa09a11a5349c67594709e0bf047ddb9a52f74be4142c614",
    ("sequences", "circle:3"): "bae04e011acd9fa757d5ff528aad955f08aa35660804cce750ccde5cb32fa690",
    ("sequences", "circle:5"): "cc0ab9a97fe5723d3476419dc99ac0ae2693c6c5c5d3d465e7c424c34f0147de",
    # pinned before the quotient, the transfer and the orbit-shift complex
    # were read one orbit at a time
    ("orbit", "disc:7"): "f94642948c10f4568719199c9c20b201f77c76dc69409bd9b15fe31d0943dba5",
    ("orbit", "sphere:7"): "9d3d463597747f84feb7ab6686a54daf1b4f12d5f26cd1f9659ed36b0bf2058f",
    ("orbit", "circle:7"): "06b8371f52c272a2628dc7e8f0d6560a7e0952574428329d0074d114f7fd5048",
    ("transfer", "disc:7"): "5ec1fb6c09d13d6324acc46f61d2076d5f3a956b099d5ce426e1eaafbb1166a6",
    ("transfer", "sphere:7"): "26f11eb5d9f714185326ffa45787318cebadbaa58ebd4237c10d08c58c67a525",
    ("transfer", "circle:7"): "d12f60b0417a5329be4e05e4cc9bb4192cd54c6cfda52c474cd0127c5bc9e4b8",
    ("sequences", "disc:7"): "ab56db25e3744d4a5e198ac4ded6c80dcd481b724bae50d99febd5fff0686054",
    ("sequences", "circle:7"): "0125e3367438788900bb948387ab0aecdb61a784889e43ed5acaa5c38e07f2c1",
}

# `smith homology --model <model> --mod p` at the model's own p, pinned
# before GF(p) homology cleared the columns paired one dimension up
PINNED_SMITH_HOMOLOGY_STDOUT = {
    "disc:3": "8104d4ae1a53cf14083f31d98f829aa36ee853e05625ec2df80b68c66158c68c",
    "disc:5": "f6fc0814497a3ce014458db1a9ceeaed64da129496e0008aa12d82caf53ebee2",
    "disc:7": "64617086b1c5e6376d09ea5ba01fc6f4b4eb0e1867e7846467e109fb4ebfc17d",
    "sphere:3": "80d13071748676d9c3d9ddbb27cc4b612bcff67c20d8a1562752c364343ff489",
    "sphere:5": "ed7b14fdbf95ee682c3e1bb6c90c47068d2eef44869f6722596440709058ea71",
    "sphere:7": "2843184f54ea6019fe10526bf9692d184fac7f1e90d590c50e7f7880fe49f43f",
    "circle:3": "99026930b5a0a48cf4bd1516beccd897d9f33b17c872c6edd66eec17e23f203f",
    "circle:5": "0377a740224414cf353cee236c72c849ed3b9b41bd728b8c5693ca5a1a808f83",
    "circle:7": "fb58f59813e55e9051047906365c7c3dfe6cd0f6d6483b02802f83b82633412b",
}


class TestPinnedSmithOutput:
    """subdivide, orbit --repair, transfer --repair, sequences --repair and
    homology --mod p print byte for byte what they printed before the
    rewrite named with each pin."""

    @pytest.mark.parametrize("verb, model", sorted(PINNED_SMITH_STDOUT))
    def test_stdout_sha256(self, capsys, verb, model):
        flags = () if verb == "subdivide" else ("--repair",)
        code, out = run_cli(capsys, "smith", verb, *flags, "--model", model)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SMITH_STDOUT[verb, model]

    @pytest.mark.parametrize("model", sorted(PINNED_SMITH_HOMOLOGY_STDOUT))
    def test_homology_mod_p_stdout_sha256(self, capsys, model):
        p = model.partition(":")[2]
        code, out = run_cli(capsys, "smith", "homology", "--model", model, "--mod", p)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SMITH_HOMOLOGY_STDOUT[model]

    def test_bad_image_named_under_any_hash_seed(self):
        # three simplices have no image: (a, c), (a, x) and (a, c, x); the
        # first in complex order is named, whatever order a set would give
        data = {
            "simplices": [["a", "c", "x"], ["b"]],
            "action": {"order": 2, "perm": {"a": "b", "b": "a", "c": "c", "x": "x"}},
        }
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "exoticaffine.cli", "smith", "orbit",
                 "--json", json.dumps(data)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {
            json.dumps({"error": "SmithError: image of simplex ('a', 'c') is not a simplex"})
            + "\n"
        }

    @pytest.mark.parametrize(
        "flags, name",
        [(("--subdivide", "2"), "--subdivide"), (("--repair",), "--repair")],
        ids=["subdivide", "repair"],
    )
    @pytest.mark.parametrize("mod", [(), ("--mod", "3")], ids=["Z", "mod3"])
    def test_homology_refuses_subdivision_flags(self, capsys, flags, name, mod):
        code, out = run_cli(capsys, "smith", "homology", "--model", "sphere:5", *flags, *mod)
        assert code == 1
        assert json.loads(out) == {"error": f"CliError: verb homology takes no {name}"}

    @pytest.mark.parametrize(
        "verb, data, bad",
        [
            ("homology", {"simplices": [[1, "a"]]}, 1),
            ("homology", {"simplices": [[0, 1], [1, 2]]}, 0),
            ("orbit", {"simplices": [["a", "b"]],
                       "action": {"order": 2, "perm": {"a": 1, "b": "a"}}}, 1),
        ],
        ids=["mixed", "integers", "perm-value"],
    )
    def test_vertex_ids_must_be_strings(self, capsys, verb, data, bad):
        code, out = run_cli(capsys, "smith", verb, "--json", json.dumps(data))
        assert code == 1
        assert json.loads(out) == {"error": f"SmithError: vertex id {bad} is not a string"}

    @pytest.mark.parametrize("argv", [("subdivide",), ("orbit",), ("orbit", "--subdivide", "1")])
    def test_action_validated_before_subdivision(self, capsys, argv):
        # "b" has no image: the same domain error whether or not the
        # complex is subdivided first
        data = {"simplices": [["a", "b"]], "action": {"order": 2, "perm": {"a": "b"}}}
        code, out = run_cli(capsys, "smith", *argv, "--json", json.dumps(data))
        assert code == 1
        assert json.loads(out) == {
            "error": "SmithError: permutation domain differs from the vertex set"
        }


LND_IMAGES = {
    "delta1": ("russell", {"x": "0", "y": "0-2*z", "z": "x^2", "t": "0"}),
    "delta2": ("russell", {"x": "0", "y": "0-3*t^2", "z": "0", "t": "x^2"}),
    "nagata": ("C3", {"x": "x^2*z - y*z^2", "y": "2*x^3 - 2*x*y*z", "z": "0"}),
}

# sha256 of the stdout of `exotic lnd <verb> --degree-bound <bound>` on the
# Russell deltas and Nagata's derivation, pinned when the kernels moved from
# dense Gauss-Jordan on Fractions to the sparse column reduction
PINNED_LND_STDOUT = {
    ("kernel", "delta1", 2): "f8340af0a5c4e016f8a9808aa024425dc26d1187c90bc97eeb49169e574c80db",
    ("kernel", "delta1", 3): "e30a8ed764705894963e9c702e1ac15dc8bd66970752c7e90ec173f3a85d8ec2",
    ("kernel", "delta2", 2): "2e24748f9b3a16c47a7b9f68fd8cb0fd504cdd83c32809e87eca1b3e0ed7a2eb",
    ("kernel", "delta2", 3): "ce88e3b8fdea39ff9d59a2b0dc956e0951bb0e13241bdb3195a2ef3e7b9c23ff",
    ("kernel", "nagata", 2): "07a10cf2a604436353e80fd84bc6b2a2e486c2168ae33ba28e5f53bdf3dafb7f",
    ("kernel", "nagata", 3): "3852257d4d65521b68519bc6e977d416a4fcf33288c0a4834a66a1562c904f31",
    ("invariants", "delta1", 2): "4b8a8368a512bbed7fb8b2e122145040274501a2df48e130966fd2f2fd50038d",
    ("invariants", "delta1", 3): "c4992d148338501ffc4c2a1dea93aab13342db20308aa31e4602dc218711daf9",
    ("invariants", "delta2", 2): "7e314a46ca1766ad0abf73658e9a2025c3b777d8e4c7bb6eff4db879b36220ae",
    ("invariants", "delta2", 3): "cda44fd4969d9f1eb687bf5d252533eb86131928346c4af7c7230c2ad4654530",
    ("invariants", "nagata", 2): "3dd6ace330de01984f290d3e6fca34c297fe6e91d10167d8932a9590d9a86789",
    ("invariants", "nagata", 3): "a255bca4e53affdcc5ee3b55064bcebfb75372571e5020f187c9a5fb65427b29",
}


class TestPinnedLndOutput:
    """lnd kernel and lnd invariants print byte for byte what dense
    Gauss-Jordan printed."""

    @pytest.mark.parametrize("verb, name, bound", sorted(PINNED_LND_STDOUT))
    def test_stdout_sha256(self, capsys, verb, name, bound):
        ring, images = LND_IMAGES[name]
        code, out = run_cli(capsys, "lnd", verb, "--ring", ring, "--images",
                            json.dumps(images), "--degree-bound", str(bound))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LND_STDOUT[verb, name, bound]


# graphs and presentations read by the pins below; `$name` in a pinned
# command stands for the JSON of PIN_INPUTS[name]
PIN_INPUTS = {
    "cycle": {"vertices": [{"id": "a", "w": -1}, {"id": "b", "w": -2}, {"id": "c", "w": -2}],
              "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
    "two": {"vertices": [{"id": "a", "w": -2}, {"id": "b", "w": -3}], "edges": []},
    "star": {"vertices": [{"id": "c", "w": -1}, {"id": "p", "w": -2}, {"id": "q", "w": -3},
                          {"id": "r", "w": -5}, {"id": "e1", "w": -1}],
             "edges": [["c", "p"], ["c", "q"], ["c", "r"], ["r", "e1"]]},
    "torus_knot": {"gens": ["a", "b"], "rels": [[1, 1, -2, -2, -2]]},
    "braid": {"gens": ["s1", "s2"], "rels": [[1, 2, 1, -2, -1, -2]]},
    "z12": {"gens": ["a", "b", "c"], "rels": [[1, 1], [2, 2, 2], [3, -1, 3, 2]]},
    "free": {"gens": ["x"], "rels": []},
}

# exit code and sha256 of the stdout of `exotic graph|group|repro ...`,
# pinned before the covering-matrix check, the component count, the
# contraction rule and the Bezout coefficients each got one owner
PINNED_GRAPH_GROUP_STDOUT = {
    "graph xt --entries=1,1,1,1,1,1,1,1": (0, "77d9030dcf2210b5dc7ff45ef49d08cf348545cbc057aa698864ee66dbf585d3"),
    "graph xt --entries=2,1,1,1,1,1,1,1": (0, "221cdd71a9cb4aecf92becff085d5fab99ba9d84b55388186d2541a3b083be8d"),
    "graph xt --entries=1,2,3,4,5,6,7,8": (0, "9f47c64ddcd7d3c95faf800c2853c9310efddbcc3ac6e8d210db3675fbfbbe58"),
    "graph xt --entries=3,2,1,1,2,1,1,1": (0, "e13e01f65c7bb7c484bb1db05262ceaf3a3f8cf9c0cc2495f7b28681592bba7a"),
    "graph xt --entries=1,-1,1,1,1,1,1,1": (1, "2dd5f806215bb4ddf737633bf138c43ef6b655a646c989cefa0a28a6dd282a4f"),
    "graph tdp --entries=2,1,3,2": (0, "b9e4a70dbc57309e13cd5bc39b6d41889d8312224fae8178c2cc7430dbca0aa4"),
    "graph tdp --entries=3,1,2,1": (0, "b9e4a70dbc57309e13cd5bc39b6d41889d8312224fae8178c2cc7430dbca0aa4"),
    "graph tdp --entries=5,2,3,1": (0, "b9e3f9a07cb9d8f76c5a684501cce94d7d8ebebe74dc8f15fdd036ffca0b0f99"),
    "graph tdp --entries=3,2,5,3": (0, "b9e3f9a07cb9d8f76c5a684501cce94d7d8ebebe74dc8f15fdd036ffca0b0f99"),
    "graph chain --m 5 --n 3": (0, "36659940c25e53b3d403e9e82aefe8fbbcdfca6f2457a774c6a1cd4c73e19d23"),
    "graph chain --m 7 --n 2": (0, "d278e2b2652ba2f0edc97b3ca03f1451b11884152f9eb62b0a8b7449d4055470"),
    "graph chain --m 1 --n 1": (0, "b729bb54b6e78d86a0f8f7915aa48ce1b828137973a7e88d4251add05a934550"),
    "graph chain --m 13 --n 8": (0, "a505d4609ff15eb88e4ac9db97633b04ba17c2d876d0ae3d25a50975c0e422ad"),
    "graph chain --m 0 --n 3": (1, "6112ad1ee344d7df403e6257513607bad8a49b0d174385736eb63b42855d0aa6"),
    "graph det --ramanujam": (0, "16c3896cae34277895ce0979174475b9be69ce81f111d9ecb6890d8d20257d91"),
    "graph det --chain=-2,-2,-2": (0, "cd8bad074048f148ce49ed74c5cf41cdb801d5219e523cd6813a78691c7688d6"),
    "graph det --chain=-1,-2,-1,-3": (0, "5fd180aab521327b5479f53007e9658d0bc70f16a08be21cb9006567269c37dd"),
    "graph det --chain=-1,0": (0, "20effbcb219a367bc4ccd4951b82c93e217798e403bee51e3df588fee26be97b"),
    "graph det --json $cycle": (0, "2dc9f21504a8b279176401784ae9a839a2fd8432b74a56f331d67fa67a11538a"),
    "graph det --json $two": (0, "a5d3907337d959063c05e1be26df76dd282b2a451431aa6f1f0fde57890ce658"),
    "graph det --json $star": (0, "fe444d3823d04828e3e7eb4b27cc93e6b8bf2aecb3577829a584b12f53da9db0"),
    "graph minimal --ramanujam": (0, "a692eaeaf27459075957c0b33a338adfa1a1c906375579ad9e25e778221c3cc9"),
    "graph minimal --chain=-2,-2,-2": (0, "c57b0d26438362681c9dae14e874771b4d0201e64a062ff297c10095641a01e7"),
    "graph minimal --chain=-1,-2,-1,-3": (0, "bac1c63758a54592351e334632cda1eea14d7557bb75d41eceacb19925f0e5ce"),
    "graph minimal --chain=-1,0": (0, "d38fb18750a32f02f8cbf5a7c1af44ffc0fad07ae91536ff5fba33ac2a2ca768"),
    "graph minimal --json $cycle": (0, "1bcc2374b01a6398d645b32e31226faf8f133fce55a24e047d3ec9c15e926c21"),
    "graph minimal --json $two": (0, "d21227117485307b03b7043cc4b80d2b93d2dc3b548b1984bf768bffead30ff7"),
    "graph minimal --json $star": (0, "0a9128860301aaff0ae51bba5cd93d55d673c2e132cfa111eca0b2e1bbd88bd2"),
    "graph ramanujam --ramanujam": (0, "fc25d82b1c378e608d84fa4c41648d51eb1a94622b8723f0660a548e4695e1bc"),
    "graph ramanujam --chain=-2,-2,-2": (0, "d00c5d22037e5ad099f57634e76879bfa56e876f9c8d4b7344fa72efa5586c6e"),
    "graph ramanujam --chain=-1,-2,-1,-3": (0, "d00c5d22037e5ad099f57634e76879bfa56e876f9c8d4b7344fa72efa5586c6e"),
    "graph ramanujam --chain=-1,0": (0, "d00c5d22037e5ad099f57634e76879bfa56e876f9c8d4b7344fa72efa5586c6e"),
    "graph ramanujam --json $cycle": (0, "17bfa4cfe1ec58f8afba9fa2bc09e41636b9bb7cec31a7cfe81e546139cbab1a"),
    "graph ramanujam --json $two": (0, "fc25d82b1c378e608d84fa4c41648d51eb1a94622b8723f0660a548e4695e1bc"),
    "graph ramanujam --json $star": (0, "fc25d82b1c378e608d84fa4c41648d51eb1a94622b8723f0660a548e4695e1bc"),
    "graph ample --chain=-1,-2 --seed 1,0": (0, "2de51208181c9551a7fe94c03e798ac1b2ec0817428cf49de8bad9b20aca04fa"),
    "graph ample --chain=1,-1 --seed 1,1": (0, "2de51208181c9551a7fe94c03e798ac1b2ec0817428cf49de8bad9b20aca04fa"),
    "graph ample --chain 0,0,0 --seed 1,0,0": (0, "5a10754b0cf80c3ea9c9274f5f66a3f16e3bf69f0c77b52d3db871c4afd053fc"),
    "graph ample --ramanujam --seed 1,0,0,0,0,0,0,0,0,0": (0, "2de51208181c9551a7fe94c03e798ac1b2ec0817428cf49de8bad9b20aca04fa"),
    "graph ample --json $two --seed 1,1": (1, "67aebf0dc11295f58f551c1f507733baa81ecb524c90d5da1d068d61419ba8b2"),
    "graph ample --chain=2,-1,2 --seed 0,1,0": (0, "2de51208181c9551a7fe94c03e798ac1b2ec0817428cf49de8bad9b20aca04fa"),
    "group xt --entries=1,1,1,1,1,1,1,1": (0, "14e28ca2ce6f3d51b6152dd64f0945d3bcfe47a772b2f24fd8b6e02a1bda39c6"),
    "group xt --entries=2,1,1,1,1,1,1,1": (0, "95df6c4db3678994713330191003aa1658e7163db3983cffdae233018bb211a5"),
    "group xt --entries=1,2,3,4,5,6,7,8": (0, "4b5724d53ea2f6f1b1593697cadff6defd8f79751f63f2d7171d34b5f8b227f0"),
    "group xt --entries=3,2,1,1,2,1,1,1": (0, "a0abb72bb0093a1a6a1ae3bb9efe324638d91802a3c6a44bbee3d1782a7e2535"),
    "group xt --entries=1,-1,1,1,1,1,1,1": (1, "2dd5f806215bb4ddf737633bf138c43ef6b655a646c989cefa0a28a6dd282a4f"),
    "group bezout --k 2 --l 3": (0, "12728554606d3f05c6ed3e55b4e77db5c8ac108d4c02fdb3de35697993e7c339"),
    "group bezout --k 3 --l 2": (0, "ca9b3cbc61a6c4562fd94cec8ca5b419994a233f2d68d00649779d2118abb311"),
    "group bezout --k 5 --l 7": (0, "764227c0d5ba7aa43bb34ff956a80ef8763fca10a64a0345b492fbfddee26388"),
    "group bezout --k 1 --l 5": (0, "218dada42624c7a389c4eac466bfdc73584b2eddc19a5e77bfca56745387d0c5"),
    "group bezout --k 7 --l 1": (0, "fadf221e9685b950f9fb57db9e496b69b7174e2b926832833241f04bd0659465"),
    "group bezout --k 8 --l 3": (0, "2081cebe6b4b11649291abdabbb5ae23e43b52feb6c3aed38e267a0d0293a95f"),
    "group bezout --k 4 --l 6": (1, "dd9aa89670a23920718f20c6c5615441f752d34545f98c8a7184fad15d4a4e40"),
    "group abel --presentation $torus_knot": (0, "15428cd99a400a7d93e10310a6e406cb9fab7d1986b22951d9b2b560c4643f02"),
    "group abel --presentation $braid": (0, "15428cd99a400a7d93e10310a6e406cb9fab7d1986b22951d9b2b560c4643f02"),
    "group abel --presentation $z12": (0, "299e9eb29d704a720b4c1ff2a877c6c8b956b52dcfdd473cebdfef1a6efdcfa5"),
    "group abel --presentation $free": (0, "15428cd99a400a7d93e10310a6e406cb9fab7d1986b22951d9b2b560c4643f02"),
    "group named --name xtquot --entries=1,1,1,1,1,1,1,1": (0, "0294d147fe9fc3d92f8119138d1a8f9d7517ed92e7003f2af14f49bab2b8d1d1"),
    "group named --name xtquot --entries=2,1,1,1,1,1,1,1": (0, "2560d51a26d2435d6948ce32ba24bf868699529802ee56f343c3845225225fe0"),
    "group named --name xtquot --entries=1,2,3,4,5,6,7,8": (0, "050ff49e67279cca326e49b33714307ee7e14c5c0957920377ad0329eb6cc379"),
    "group named --name xtquot --entries=3,2,1,1,2,1,1,1": (0, "b9055fe15ce8c8482627e8ea0f7f8636b877f0f4faeaba18b3737db2a6d688a6"),
    "group named --name xtquot --entries=1,-1,1,1,1,1,1,1": (1, "2dd5f806215bb4ddf737633bf138c43ef6b655a646c989cefa0a28a6dd282a4f"),
    "repro graphs": (0, "0b9462c8f5436822b4e4d14185c280229145800bb6aaabe70bce7e032ef424fa"),
    "repro groups": (0, "ff2b93da9738d2c6530c93a67d65fb374fa9c862342940b1e9c887d226e2adf3"),
}


class TestPinnedGraphGroupOutput:
    """graph, group and repro graphs|groups print byte for byte what they
    printed before the rules they read were given one owner each."""

    @pytest.mark.parametrize("command", sorted(PINNED_GRAPH_GROUP_STDOUT))
    def test_stdout_sha256(self, capsys, command):
        argv = [json.dumps(PIN_INPUTS[w[1:]]) if w.startswith("$") else w
                for w in command.split(" ")]
        code, out = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_GRAPH_GROUP_STDOUT[command]


# sha256 of the stdout of `exotic group snf` on one seeded matrix of each
# shape the integer-linalg bench uses, pinned before the pivot search
# stopped at the first unit and the certificate moved from determinants to
# tracked inverses: both changes leave U, S and V byte-identical
PINNED_SNF_STDOUT = {
    (3, 5): "1467c6142704d66961a4474f255da6679f009319bc6b030f7bac9e2c1ca10237",
    (5, 3): "09ad496df3ae987f174fa0d947ec913bf8563b458644a75bba2e6757580bf6e9",
    (4, 4): "c0d9432c0adbf6913032d90989e84fd9a5bd2dc6cda3cb5d7ef712bd88315888",
    (5, 5): "394343731a6408fd29e287da3a3916c35f357d4c1793ca9c5f081f802d77c690",
    (6, 6): "7e4a60a93aa8c172e3e0e1ed707aea9ddb2bab16a4bfd70e848c3532f185d43f",
    (5, 8): "426f71c5bf09173e926b4a103b4481698b2c4a834bf21009d7b1b73c7765b425",
    (8, 5): "2b4fb3178f73182f6464432f61b656efb9a023742b11c8af73c02623cc6f7e5e",
    (7, 7): "92f831d75e2d78ef2b653a1cf53ba5d4abba478f40d23714648c656d6fba6220",
}


class TestPinnedSnfOutput:
    @pytest.mark.parametrize("shape", sorted(PINNED_SNF_STDOUT), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_stdout_sha256(self, capsys, shape):
        rows, cols = shape
        matrix = rank_deficient_matrix(random.Random(f"group snf {rows}x{cols}"), rows, cols)
        code, out = run_cli(capsys, "group", "snf", "--matrix", json.dumps(matrix))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SNF_STDOUT[shape]


def pinned_chain_argv(length: int) -> list[str]:
    """A seeded `graph chain` whose resolution has `length` curves."""
    m, n = chain_pair(random.Random(f"graph chain {length}"), length)
    return ["graph", "chain", "--m", str(m), "--n", str(n)]


def seeded_forest(rng, sizes, low=-5, high=3) -> dict:
    """Graph JSON of one seeded tree of each size in `sizes`."""
    vertices, edges = [], []
    for c, size in enumerate(sizes):
        ids = [f"c{c}v{i}" for i in range(size)]
        vertices += [{"id": v, "w": rng.randint(low, high)} for v in ids]
        edges += [[ids[i], ids[rng.randrange(i)]] for i in range(1, size)]
    return {"vertices": vertices, "edges": edges}


def pinned_det_graph(name: str) -> dict:
    """The graph JSON behind each pinned `graph det`."""
    rng = random.Random(f"graph det {name}")
    if name.startswith("tree-"):
        return seeded_forest(rng, [int(name[5:])])
    if name == "forest":
        return seeded_forest(rng, [1, 4, 9, 2])
    if name == "zero-weight":
        g = seeded_forest(rng, [12])
        g["vertices"][5]["w"] = 0
        return g
    if name == "empty":
        return {"vertices": [], "edges": []}
    # a tree with two chords: two cycles, trees hanging off them
    g = seeded_forest(rng, [10])
    g["edges"] += [["c0v2", "c0v9"], ["c0v3", "c0v8"]]
    return g


# sha256 of the stdout of `graph chain` at every chain length of the
# integer-linalg bench, and of `graph det` on seeded forests and on a graph
# with cycles, pinned while every intersection determinant was a Bareiss
# elimination of the dense matrix
PINNED_CHAIN_STDOUT = {
    3: "5c4378c831355888ffa1d1f8449e7619903e00dfbebcddf483db8b8915ae549a",
    5: "e45f0b50cb7746ca9fca79cfe136d9154f4ab80e0129c6433871958fd8383a14",
    8: "3678ae8e7dc231a6acc6e34ffaf933ac3d6559d2597155759bcfc0697b889d1d",
    12: "a5566e09a914c27c182dab5383de040ca871a28999b147d9047c2b9a511e865f",
    16: "72e5404ebe54dd1db8f0d4feb35eb9daaea586bf80dca7c47f2d37239bfd13dc",
    20: "b33af113eb2aa8052a349b074640902507be55fee2dcb6c9b85e073445c5d5e5",
    25: "fcd8fe8d6904c1964b7f586c3f070fdfebafe5c81c166f8a3102f7a63864a1f3",
    30: "5088d5576049c05044b6f975bb0b80f297e502a3f112a97267bd4c1f94125c83",
}
PINNED_DET_STDOUT = {
    "tree-1": "aa3fdc34dbd64ab47e6e28da528d4b669b06ac8c2030766a3b921a667e67fe98",
    "tree-8": "8b1128bfa7827ef6982e9e386f65aed1f93ff4a003b421066acf3a4ce56a283b",
    "tree-30": "e7e25e804012f79f6245bff578b333d10a11ba474f9cf58b47228903eb9fc87a",
    "tree-60": "0cbe5477a67056068a9f04547278b11d2e43dfaeaca9273696a9d4b512d93fb0",
    "forest": "1afb7cab037d47bd3f650d9f33625bdb33fdaddbf9c2cbafac78c5663957388a",
    "zero-weight": "e4451cd0d7dfdda01570556cd8f0c4c63d3f323b77b3837e428b0d74c923be87",
    "empty": "9e184576e8f54473f1e4d41e08a6fa9096dec12a361af1e9f10d83a5d5d7c334",
    "cycle": "a42586e25835b309e32c849cd2eef7b13394647305b1e8be48a79d588b1bebad",
}


class TestPinnedDeterminantOutput:
    @pytest.mark.parametrize("length", CHAIN_LENGTHS)
    def test_chain_stdout_sha256(self, capsys, length):
        code, out = run_cli(capsys, *pinned_chain_argv(length))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CHAIN_STDOUT[length]

    @pytest.mark.parametrize("name", sorted(PINNED_DET_STDOUT))
    def test_det_stdout_sha256(self, capsys, name):
        code, out = run_cli(capsys, "graph", "det", "--json", json.dumps(pinned_det_graph(name)))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DET_STDOUT[name]

    def test_only_a_cycle_is_eliminated(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(dualgraph, "det", lambda m: calls.append(m) or linalg.det(m))
        for length in CHAIN_LENGTHS:
            assert run_cli(capsys, *pinned_chain_argv(length))[0] == 0
        for name in ("tree-30", "forest", "zero-weight", "empty"):
            forest = json.dumps(pinned_det_graph(name))
            assert run_cli(capsys, "graph", "det", "--json", forest)[0] == 0
        assert len(calls) == 0
        cycle = json.dumps(pinned_det_graph("cycle"))
        assert run_cli(capsys, "graph", "det", "--json", cycle)[0] == 0
        assert len(calls) == 1


class TestParseBoundary:
    """Bad polynomial text and bad lnd options are domain errors (exit 1
    with a JSON error naming the problem), not tracebacks."""

    TRIANGULAR = json.dumps({"x": "0", "y": "x", "z": "y"})

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["poly", "subst", "-a", "x+y", "--vars", "x,y", "--map", '{"x": 3, "y": "x"}'],
                "ParseError: polynomial text must be a string, not int",
            ),
            (
                ["lnd", "degree", "--ring", "C3", "--images", TRIANGULAR],
                "CliError: lnd degree needs --poly",
            ),
            (
                ["lnd", "flow", "--ring", "C3", "--images", TRIANGULAR, "--t", "1/0"],
                "CliError: --t '1/0' has a zero denominator",
            ),
            (
                ["poly", "arith", "-a", "x + 3 #", "-b", "y"],
                "ParseError: unexpected character '#' at 6",
            ),
        ],
        ids=["subst-non-string", "degree-no-poly", "flow-zero-denominator", "bad-character"],
    )
    def test_exit_one_with_json_error(self, capsys, argv, error):
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (1, {"error": error})

    def test_non_rational_t_stays_a_parameter_name(self, capsys):
        code, out = run_cli(capsys, "lnd", "flow", "--ring", "C3", "--images", self.TRIANGULAR,
                            "--t", "s")
        assert code == 0
        assert json.loads(out)["z"]["text"] == "1/2*x*s^2 + y*s + z"


def pinned_poly_argv(command: str) -> list[str]:
    """One seeded input for each pinned polynomial command."""
    rng = random.Random(f"pinned {command}")

    def text(names, max_terms, max_exp):
        while True:
            p = random_poly(varset(*names), rng, max_terms, max_exp)
            if len(p.terms) > 1:
                return str(p)

    xyzt = ("x", "y", "z", "t")
    images = json.dumps({"x": "0", "y": text("x", 2, 2), "z": text("xy", 3, 2)})
    triangular = ["--ring", "C3", "--images", images]
    return {
        "poly nf": ["poly", "nf", f"-a=x^2*y*({text(xyzt, 4, 3)}) - {text(xyzt, 3, 3)}",
                    "-b=x + x^2*y + z^2 + t^3",
                    "--order-weights", "1,3,0,0"],
        "grade canonical": ["grade", "canonical", f"--poly={text(xyzt, 6, 5)}"],
        "poly arith --op pow": ["poly", "arith", f"-a={text(xyzt, 3, 2)}", "--op", "pow", "-n", "4"],
        "lnd flow": ["lnd", "flow", *triangular, f"--t={Fraction(rng.randint(-5, 5), 3)}"],
        "lnd kernel": ["lnd", "kernel", *triangular, "--degree-bound", "3"],
        "lnd invariants": ["lnd", "invariants", *triangular, "--degree-bound", "3"],
    }[command]


# sha256 of the stdout of each command on its seeded input, pinned before
# the parser folded products and the printer sorted each polynomial once
PINNED_POLY_STDOUT = {
    "poly nf": "8024e3f56beed72f5705eaa8ef762690dfc9bfc0adf6a2723b8b9c2121dacd08",
    "grade canonical": "809fb92931436730b0dde6fe3a432828a11751d114e8c117296893655f71d711",
    "poly arith --op pow": "888f14e3b11dff07b0983e6703eed77b3c1303f5a6a66e0de9e17431f457ad87",
    "lnd flow": "ea1658719789b05b570367da5000ac0ddc1fd42617e14c524629a0e3392b919b",
    "lnd kernel": "6014cecba36567d417b4a5f9119f454d38c08b31db8405ef01f598a9eeb82968",
    "lnd invariants": "adf4d5a643d66e339d6d03dada8b63c697dd80a0b28e3555904133ae404d64da",
}


class TestPinnedPolynomialOutput:
    @pytest.mark.parametrize("command", sorted(PINNED_POLY_STDOUT))
    def test_stdout_sha256(self, capsys, command):
        code, out = run_cli(capsys, *pinned_poly_argv(command))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_POLY_STDOUT[command]


def pinned_jacobian_argv(n: int) -> list[str]:
    """A seeded `poly jacobian` of n polynomials in n variables."""
    rng = random.Random(f"pinned jacobian {n}")
    names = [f"x{i}" for i in range(1, n + 1)]
    fs = []
    while len(fs) < n:
        p = random_poly(varset(*names), rng, 3, 2)
        if len(p.terms) > 1:
            fs.append(str(p))
    return ["poly", "jacobian", "--vars", ",".join(names), "--fs", ";".join(fs)]


# sha256 of the stdout of each seeded `poly jacobian`, pinned while the
# determinant was still a cofactor recursion
PINNED_JACOBIAN_STDOUT = {
    2: "94ba868d76f9a9d74d2b87feebe535a954171b64062e5f507e667e0a3fdfd019",
    3: "b068aa388f81fdf80f571b2fba071bd4f03d5892e58895eed07b616ac2e3bed3",
    4: "f38891f6f825de1de420090a48fcae01df87520173cf831c21678ddc8d61780b",
    5: "bcf1062c9d9d5154872b0ac7056d01f5e31a7b4022f617f6df87b2c707c56244",
    6: "b0d5f378f11d7a3249bede1f805c22b5835ace288ab658059796dd98c53c8353",
    7: "115bf9c95084673444cce1ed4fa41314c3194c44ad892b32712902badf3ceb43",
}


class TestPinnedJacobianOutput:
    @pytest.mark.parametrize("n", sorted(PINNED_JACOBIAN_STDOUT))
    def test_stdout_sha256(self, capsys, n):
        code, out = run_cli(capsys, *pinned_jacobian_argv(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JACOBIAN_STDOUT[n]


GRAPH_AB = {"vertices": [{"id": "a", "w": -1}, {"id": "b", "w": -2}], "edges": [["a", "b"]]}
EDGE = {"simplices": [["a", "b"]], "action": {"order": 2, "perm": {"a": "b", "b": "a"}}}


def with_action(**action):
    return json.dumps({"simplices": EDGE["simplices"], "action": action})


class TestInputBoundary:
    """Every malformed input that once ended in a traceback, a silently
    truncated number, a dropped option or a Python-internal message is exit
    1 with one JSON error that names the option or the JSON field."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            # tracebacks: a required option missing
            (["group", "snf"], "CliError: group snf needs --matrix"),
            (["graph", "chain", "--m", "5"], "CliError: graph chain needs --n"),
            (["graph", "chain", "--chain", "a,b"], "CliError: graph chain needs --m"),
            (["graph", "chain", "--chain", ""], "CliError: graph chain needs --m"),
            (["poly", "nf", "-a", "x"], "CliError: poly nf needs -b"),
            (["poly", "arith", "-a", "x"], "CliError: poly arith needs -b"),
            (["poly", "subst", "-a", "x+y", "--vars", "x,y"], "CliError: poly subst needs --map"),
            (["group", "named", "--k", "2"], "CliError: group named needs --name"),
            (["group", "sphere", "--l", "3", "--s", "5"], "CliError: group sphere needs --k"),
            (["lnd", "kernel"], "CliError: lnd kernel needs --images"),
            # tracebacks: JSON of the wrong shape
            (["smith", "orbit", "--json", "0"],
             'NotAComplex: a complex needs a "simplices" list of vertex lists'),
            (["smith", "homology", "--json", "[]"],
             'NotAComplex: a complex needs a "simplices" list of vertex lists'),
            (["poly", "subst", "-a", "x", "--vars", "x", "--map", "[1]"],
             "CliError: --map takes a JSON object of polynomials"),
            (["graph", "blowup", "--site", "a", "--json", '{"vertices":1}'],
             'WrongShape: a graph needs a "vertices" list'),
            (["graph", "det", "--json", "[]"], 'WrongShape: a graph needs a "vertices" list'),
            (["graph", "det", "--json", '{"vertices": [{"id": "a", "w": -1}], "edges": [["a", "a"]]}'],
             'WrongShape: "edges" must be pairs of distinct vertex ids'),
            (["graph", "xt", "--entries", "1,2"],
             "CliError: --entries takes 8 comma-separated integers, not '1,2'"),
            (["graph", "blowup", "--json", json.dumps(GRAPH_AB), "--site", "a,b,c"],
             "CliError: --site takes a vertex id or one edge u,v, not 'a,b,c'"),
            (["group", "abel", "--presentation", '{"gens":["a"],"rels":[["b"]]}'],
             'GroupError: a presentation needs a "rels" list of integer words'),
            (["group", "named", "--name", "xtquot"], "InvalidParams: xtquot needs t"),
            # Python-internal messages: integer options and JSON keys
            (["poly", "nf", "-a", "x", "-b", "y", "--order-weights", "a,b"],
             "CliError: --order-weights takes a list of comma-separated integers, not 'a,b'"),
            (["grade", "degree", "--poly", "x", "--weights", "a,b,c,d"],
             "CliError: --weights takes a list of comma-separated integers, not 'a,b,c,d'"),
            (["grade", "degree", "--poly", "x", "--weights", "1/2,1,1,1"],
             "CliError: --weights takes a list of comma-separated integers, not '1/2,1,1,1'"),
            (["family", "brieskorn", "--k", "2", "--l", "3", "--s", "x"],
             "CliError: --s takes a list of comma-separated integers, not 'x'"),
            (["family", "brieskorn", "--k", "2", "--l", "3", "--s", "1,2"],
             "CliError: --s takes an integer, not '1,2'"),
            (["graph", "ample", "--ramanujam", "--seed", "x"],
             "CliError: --seed takes a list of comma-separated integers, not 'x'"),
            (["smith", "homology", "--model", "disc:x"], "CliError: --model takes an integer, not 'x'"),
            (["lnd", "check", "--ring", "{}", "--images", '{"x": "0"}'],
             'ParseError: JSON needs a "vars" list of variable names'),
            (["family", "tdp"], "InvalidParams: tdp needs k, l"),
            (["family", "sathaye_wright", "--f", "x", "--g", "y"], "InvalidParams: sathaye_wright needs n"),
            (["graph", "blowup", "--site", "a", "--json", "{}"],
             'WrongShape: a graph needs a "vertices" list'),
            (["group", "abel", "--presentation", "{}"],
             'GroupError: a presentation needs a "gens" list of generator names'),
            (["smith", "homology", "--json", "{}"],
             'NotAComplex: a complex needs a "simplices" list of vertex lists'),
            (["graph", "det", "--json", "{"],
             "CliError: --json: not JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
            (["graph", "det", "--json", "no/such/file.json"],
             "CliError: --json: cannot read 'no/such/file.json': No such file or directory"),
            # JSON integers are ints, not truncated floats or bools
            (["graph", "det", "--json", '{"vertices":[{"id":"a","w":2.7}]}'],
             "WrongShape: vertex {'id': 'a', 'w': 2.7} needs a string id and an integer weight w"),
            (["graph", "det", "--json", '{"vertices":[{"id":"a","w":true}]}'],
             "WrongShape: vertex {'id': 'a', 'w': True} needs a string id and an integer weight w"),
            (["grade", "degree", "--poly", "x", "--vars", "x", "--weights",
              '{"vars":["x"],"weights":[1.9]}'],
             'GradingError: weight JSON needs a "weights" list of integers'),
            (["smith", "orbit", "--json", with_action(order=2.5, perm=EDGE["action"]["perm"])],
             'SmithError: an action needs an integer "order" and a "perm" object'),
            (["smith", "orbit", "--json", with_action(order=True, perm=EDGE["action"]["perm"])],
             'SmithError: an action needs an integer "order" and a "perm" object'),
            (["poly", "diff", "--by", "x", "--vars", "x", "-a",
              '{"vars": ["x"], "terms": [{"c": "1", "e": [1.7]}]}'],
             "ParseError: term {'c': '1', 'e': [1.7]} needs an exponent list e of integers"),
            # a second source for one input is refused, not dropped
            (["smith", "sequences", "--model", "sphere:3", "--action", "{}"],
             "CliError: --model and --action both give the action; pass one"),
            (["smith", "orbit", "--json", json.dumps(EDGE), "--action", json.dumps(EDGE["action"])],
             'CliError: --action and the "action" of --json both give the action; pass one'),
            (["graph", "minimal", "--chain=-1,-2", "--ramanujam"],
             "CliError: --chain and --ramanujam both give the graph; pass one"),
            (["smith", "homology", "--json", json.dumps(EDGE), "--model", "disc:3"],
             "CliError: --json and --model both give the complex; pass one"),
            (["lnd", "check", "--ring", "C2", "--images", '{"ring": "C3", "x": "0", "y": "x"}'],
             'CliError: --ring and the "ring" of --images both give the ring; pass one'),
            (["lnd", "check", "--ring", "C2", "--images", '{"x": "0", "y": "x", "z": "y"}'],
             "CliError: --images maps ['z'], not ring variables"),
            # one rule for polynomial values in --map and --images
            (["lnd", "check", "--ring", "C2", "--images", '{"x": 1}'],
             "ParseError: polynomial text must be a string, not int"),
            # exponent notation in rational text
            (["poly", "diff", "--by", "x", "--vars", "x", "-a",
              '{"vars": ["x"], "terms": [{"c": "1e5", "e": [1]}]}'],
             "ParseError: term {'c': '1e5', 'e': [1]} needs a coefficient c, "
             "an integer or num/den text"),
            # variable names the parser cannot read back
            (["poly", "arith", "-a", "x", "-b", "y", "--vars", "x,y,x*y", "--op", "mul"],
             "InvalidVarSet: 'x*y' is not a variable name [A-Za-z_][A-Za-z_0-9]*"),
            (["poly", "arith", "-a", "x", "-b", "x", "--vars", "1,x"],
             "InvalidVarSet: '1' is not a variable name [A-Za-z_][A-Za-z_0-9]*"),
            (["poly", "diff", "--by", "x", "--vars", "x", "-a", '{"vars": ["x y"], "terms": []}'],
             "InvalidVarSet: 'x y' is not a variable name [A-Za-z_][A-Za-z_0-9]*"),
            (["lnd", "flow", "--ring", "C2", "--images", '{"x": "0", "y": "x"}', "--t", "1e5"],
             "InvalidVarSet: '1e5' is not a variable name [A-Za-z_][A-Za-z_0-9]*"),
            # a graph given to a verb that reads none
            (["graph", "chain", "--m", "5", "--n", "3", "--json", '{"vertices": 1}'],
             "CliError: graph chain reads no graph; drop --json"),
            (["graph", "xt", "--entries", "1,1,1,1,1,1,1,1", "--chain=-2,-2"],
             "CliError: graph xt reads no graph; drop --chain"),
            (["graph", "tdp", "--entries", "2,1,3,2", "--ramanujam"],
             "CliError: graph tdp reads no graph; drop --ramanujam"),
            # a refusal names the spelling typed: --file is an alias of --json
            (["graph", "tdp", "--entries", "2,1,3,2", "--file", "graph.json"],
             "CliError: graph tdp reads no graph; drop --file"),
            (["graph", "det", "--file", "graph.json", "--chain", "3,2"],
             "CliError: --file and --chain both give the graph; pass one"),
            (["graph", "det", "--file", "no/such/file.json"],
             "CliError: --file: cannot read 'no/such/file.json': No such file or directory"),
            (["smith", "homology", "--file", json.dumps(EDGE), "--model", "disc:3"],
             "CliError: --file and --model both give the complex; pass one"),
            (["smith", "orbit", "--file", json.dumps(EDGE), "--action", json.dumps(EDGE["action"])],
             'CliError: --action and the "action" of --file both give the action; pass one'),
            # two curves meet at most once
            (["graph", "det", "--json", json.dumps({**GRAPH_AB, "edges": [["a", "b"], ["b", "a"]]})],
             "WrongShape: edge ['b', 'a'] is repeated"),
            # a needed option is in REQUIRED, never a usage error
            (["grade", "degree"], "CliError: grade degree needs --poly"),
            # a negative count of rounds once ran none and exited 0
            (["smith", "subdivide", "--model", "disc:3", "--subdivide", "-2"],
             "CliError: --subdivide takes a count of rounds, not -2"),
            (["smith", "orbit", "--model", "circle:3", "--subdivide", "-1", "--repair"],
             "CliError: --subdivide takes a count of rounds, not -1"),
        ],
    )
    def test_exit_one_with_json_error(self, capsys, argv, error):
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (1, {"error": error})

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["orbit", "--model", "disc:3", "--subdivide", "2"], 337),
            (["sequences", "--model", "sphere:3", "--subdivide", "2"], 650),
            (["subdivide", "--model", "disc:3", "--subdivide", "1"], 337),
        ],
        ids=["orbit", "sequences", "subdivide-verb"],
    )
    def test_subdivision_over_the_cap_refused(self, capsys, monkeypatch, argv, size):
        """Each round is refused before it runs when its predicted size
        passes the cap; the rounds before it run."""
        monkeypatch.setattr(smithhom, "SUBDIVISION_CAP", 300)
        rounds = []
        subdivide = smithhom.barycentric_subdivide

        def counting(k, a=None):
            rounds.append(k)
            return subdivide(k, a)

        monkeypatch.setattr(smithhom, "barycentric_subdivide", counting)
        code, out = run_cli(capsys, "smith", *argv)
        assert (code, json.loads(out)) == (1, {
            "error": f"CliError: a subdivision would make {size} simplices, over the cap of 300"
        })
        assert len(rounds) == 1
        monkeypatch.setattr(smithhom, "SUBDIVISION_CAP", size)
        assert run_cli(capsys, "smith", *argv)[0] == 0

    @pytest.mark.parametrize(
        "reader, data, error",
        [
            ("dualgraph.graph_from_json", {"vertices": [{"id": "a", "w": 1.0}]}, "GraphError"),
            ("dualgraph.graph_from_json", {"vertices": [{"id": "a", "w": False}]}, "GraphError"),
            ("grading.weights_from_json", {"vars": ["x"], "weights": [1.0]}, "PolyError"),
            ("grading.weights_from_json", {"vars": ["x"], "weights": [True]}, "PolyError"),
            ("smithhom.action_from_json", {"order": 2.0, "perm": {}}, "SmithError"),
            ("smithhom.action_from_json", {"order": True, "perm": {}}, "SmithError"),
            ("polyring.poly_from_json", {"vars": ["x"], "terms": [{"c": "1", "e": [1.0]}]},
             "PolyError"),
            ("polyring.poly_from_json", {"vars": ["x"], "terms": [{"c": "1", "e": [True]}]},
             "PolyError"),
            ("polyring.poly_from_json", {"vars": ["x"], "terms": [{"c": 0.5, "e": [1]}]},
             "PolyError"),
            ("fpgroups.presentation_from_json", {"gens": ["a"], "rels": [[1.0]]}, "GroupError"),
        ],
    )
    def test_json_integers_are_ints(self, reader, data, error):
        module, name = reader.split(".")
        with pytest.raises(cli.DOMAIN_ERRORS) as exc:
            getattr(importlib.import_module(f"exoticaffine.{module}"), name)(data)
        assert error in [cls.__name__ for cls in type(exc.value).__mro__]

    def test_polynomial_json_in_a_map(self, capsys):
        image = {"vars": ["x", "y"], "terms": [{"c": "2", "e": [0, 1]}]}
        code, out = run_cli(capsys, "poly", "subst", "-a", "x+y", "--vars", "x,y",
                            "--map", json.dumps({"x": image, "y": "y"}))
        assert (code, json.loads(out)["text"]) == (0, "3*y")

    def test_dash_reads_stdin_and_file_is_an_alias_of_json(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GRAPH_AB)))
        assert run_cli(capsys, "graph", "det", "--file", "-") == run_cli(
            capsys, "graph", "det", "--json", json.dumps(GRAPH_AB)
        )
        path = tmp_path / "matrix.json"
        path.write_text("[[2, 4], [6, 8]]")
        code, out = run_cli(capsys, "group", "snf", "--matrix", str(path))
        assert (code, json.loads(out)["S"]) == (0, [["2", "0"], ["0", "4"]])

    def test_rational_text_without_an_exponent_keeps_its_meaning(self, capsys):
        for c, value in (("3/2", "3/2"), ("-4", "-4"), ("1.5", "3/2"), (" 7 ", "7")):
            term = {"c": c, "e": [1]}
            code, out = run_cli(capsys, "poly", "diff", "--by", "x", "--vars", "x",
                                "-a", json.dumps({"vars": ["x"], "terms": [term]}))
            assert (code, json.loads(out)["terms"]) == (0, [{"c": value, "e": [0]}])

    def test_huge_exponent_is_refused_at_once(self, capsys):
        for t in ("1e9999999", "1E9999999"):
            start = time.perf_counter()
            code, out = run_cli(capsys, "lnd", "flow", "--ring", "C2",
                                "--images", '{"x": "0", "y": "x"}', "--t", t)
            assert time.perf_counter() - start < 0.5
            assert (code, json.loads(out)["error"].split(":")[0]) == (1, "InvalidVarSet")

    def test_json_in_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["--json-in", "graph", "det"])
        assert exc.value.code == 2

    def test_domain_errors_hold_no_builtin_exception(self):
        assert not [cls for cls in cli.DOMAIN_ERRORS if cls.__module__ == "builtins"]

    def test_a_bug_exits_three_with_its_traceback(self, capsys, monkeypatch):
        def broken(args):
            return {}["missing"]

        monkeypatch.setitem(cli.HANDLERS, "group", broken)
        code = main(["group", "triangle", "--k", "2", "--l", "3", "--s", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"error": "InternalError: KeyError: 'missing'"}
        assert captured.err.startswith("Traceback") and "KeyError" in captured.err

    def test_cold_import_loads_no_traceback(self):
        """traceback is imported only when a bug is reported; argparse (with
        gettext, about 3 ms) not at all, since COMMANDS is read by a loop."""
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import exoticaffine.cli; "
            "print(sorted({'traceback', 'argparse', 'gettext'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


# Small junk for option values: the guards against inputs that blow up
# (huge exponents, subdivision counts, ring sizes) are not in place yet.
# Rational text in exponent notation is refused before it is built.
JUNK = ["", "0", "-1", "2", "x", "a,b", "1.5", "1/0", "{}", "[]", "[1]", "null",
        '{"x": 1}', '{"vertices": 1}', "-", "no/such/file", "1e9999999"]


def option_slots(argv):
    """argv as [command, verb, ...] plus (option, value or None) pairs."""
    words, slots, i = [], [], 0
    while i < len(argv):
        word = argv[i]
        if not word.startswith("-"):
            words.append(word)
        elif "=" in word:
            slots.append(tuple(word.split("=", 1)))
        elif i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            slots.append((word, argv[i + 1]))
            i += 1
        else:
            slots.append((word, None))
        i += 1
    return words, slots


def fuzzed_bench_argvs(count: int = 500) -> list[list[str]]:
    """Bench tasks of the three workloads (seed 7, reduced sizes), each with
    one option dropped or its value replaced by junk."""
    tasks = [t.argv for w in WORKLOADS for t in generate(w, 7, reduced=True)]
    rng = random.Random(5)
    argvs = []
    for _ in range(count):
        words, slots = option_slots(rng.choice([t for t in tasks if len(t) > 2]))
        i = rng.randrange(len(slots))
        option, value = slots[i]
        if value is None or rng.random() < 0.4:
            del slots[i]
        else:
            slots[i] = (option, rng.choice(JUNK))
        argvs.append(words + [o if v is None else f"{o}={v}" for o, v in slots])
    return argvs


class TestFuzzedBenchCommands:
    """Each bench task of the three workloads (reduced sizes) with one option
    dropped or its value replaced by junk: the outcome is exit 0, exit 1
    with a JSON error, or a usage error's exit 2 -- never a bug (exit 3) and
    never an exception out of main."""

    def test_mutations(self, capsys, monkeypatch):
        outcomes = {}
        for argv in fuzzed_bench_argvs():
            monkeypatch.setattr(sys, "stdin", io.StringIO(""))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (argv, out)
            if code == 1:
                assert set(json.loads(out)) == {"error"}, argv
            outcomes[code] = outcomes.get(code, 0) + 1
        assert outcomes.get(1, 0) > 150 and outcomes.get(0, 0) > 20


def read_outcome(parse, argv):
    """vars() of the namespace parse gives argv, or its exit code."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


class TestReaderAgainstArgparse:
    """cli.parse_args against the argparse spec it replaced
    (tests/argparse_oracle.py): where argparse accepts an argv the reader
    gives the same namespace, and where argparse exits 2 so does the
    reader, but for three intended differences, each pinned below."""

    def test_bench_and_fuzzed_argvs(self, capsys):
        oracle = argparse_oracle.build_parser()
        argvs = [list(t.argv) for w in WORKLOADS for seed in (7, 11) for reduced in (False, True)
                 for t in generate(w, seed, reduced)]
        argvs += fuzzed_bench_argvs()
        refused = poly_missing = 0
        for argv in argvs:
            expected, got = read_outcome(oracle.parse_args, argv), read_outcome(cli.parse_args, argv)
            if expected == 2 and argv[0] == "grade" and "--poly" not in (
                    w.partition("=")[0] for w in argv):
                # grade --poly is in REQUIRED: the reader leaves it unset
                expected = read_outcome(oracle.parse_args, argv + ["--poly=x"]) | {"poly": None}
                poly_missing += 1
            refused += expected == 2
            assert got == expected, argv
        capsys.readouterr()
        assert refused > 10 and poly_missing > 10

    @pytest.mark.parametrize(
        "argv, typed",
        [
            (["lnd", "kernel", "--ring", "C2", "--images", '{"x":"0","y":"x"}', "--deg", "2"],
             "--deg"),
            (["graph", "chain", "--m", "5", "--n", "3", "--ent", "1"], "--ent"),
        ],
    )
    def test_abbreviations_are_refused(self, capsys, argv, typed):
        assert isinstance(read_outcome(argparse_oracle.build_parser().parse_args, argv), dict)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unknown option {typed}" in captured.err

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["grade", "degree", "--vars", "x,y,z,t", "--weights", "-1,2,0,0", "--poly", "x*y"],
             {"degree": "1"}),
            (["poly", "arith", "--vars", "x", "-a", "-x+1", "-b", "x"],
             {"vars": ["x"], "terms": [{"c": "1", "e": [0]}], "text": "1"}),
        ],
    )
    def test_values_may_begin_with_a_dash(self, capsys, argv, out):
        assert read_outcome(argparse_oracle.build_parser().parse_args, argv) == 2
        capsys.readouterr()
        code, printed = run_cli(capsys, *argv)
        assert (code, json.loads(printed)) == (0, out)

    def test_an_option_spelling_is_never_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "det", "--chain", "--ramanujam"])
        assert exc.value.code == 2
        assert "--chain needs a value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nonesuch"],
            ["--verb", "repro", "all"],
            ["graph"],
            ["graph", "nonesuch"],
            ["graph", "chain", "--nonesuch", "1"],
            ["graph", "chain", "--m"],
            ["graph", "chain", "--m", "x", "--n", "3"],
            ["graph", "chain", "--m", "5", "--n", "3", "extra"],
            ["graph", "chain", "--m", "5", "--n", "3", "--pretty"],
            ["graph", "det", "--ramanujam=1"],
            ["poly", "arith", "-a", "x", "-b", "y", "--op", "div"],
        ],
    )
    def test_usage_errors_exit_two_with_the_usage_on_stderr(self, capsys, argv):
        assert read_outcome(argparse_oracle.build_parser().parse_args, argv) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: exotic") and ": error: " in captured.err


def help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    return captured.out


def test_help_names_every_command_verb_and_option(capsys):
    text = help_text(capsys, ["--help"])
    assert all(flag in text for flag in cli.GLOBAL_FLAGS)
    for command, (_, (_, choices), options) in cli.COMMANDS.items():
        assert re.search(rf"^  {command} ", text, re.M), command
        for argv in (["--verbose", command, "--help"], [command, "-h"]):
            text_of_command = help_text(capsys, argv)
            words = set(re.split(r"[\s,{}]+", text_of_command))
            if isinstance(choices, tuple):
                assert set(choices) <= words, command
            assert {s for names, *_ in options for s in names.split()} <= words, command


def readme_examples() -> list[list[str]]:
    """The argv of every `exotic ...` line in the README that reads no file."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^exotic (.+)$", readme, re.M)
    return [shlex.split(line) for line in lines if ".json" not in line]


def test_readme_examples_run(capsys):
    examples = readme_examples()
    assert len(examples) >= 7
    for argv in examples:
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out), argv
