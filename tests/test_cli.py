"""CLI dispatch: JSON output, exit codes, determinism."""

import json

import pytest

from exoticaffine import cli
from exoticaffine.cli import main


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

    def test_smith_sequences_model(self, capsys):
        code, out = run_cli(capsys, "smith", "sequences", "--model", "sphere:3")
        assert code == 0
        assert json.loads(out) == {
            "p": "3",
            "subdivisions_for_quotient": "2",
            "ses_exact": True,
            "les_rho_exact": True,
            "les_tau_exact": True,
            "special_matches_pair": True,
            "special_dims_sigma": ["0", "1", "1"],
            "pair_dims": ["0", "1", "1"],
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
        "model, dims", [("sphere:3", ["1", "0", "1"]), ("disc:3", ["1", "0", "0"])]
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
