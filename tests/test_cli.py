"""CLI dispatch: JSON output, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
}


class TestPinnedSmithOutput:
    """subdivide, orbit --repair, transfer --repair and sequences --repair
    print byte for byte what they printed before the rewrite named with
    each pin."""

    @pytest.mark.parametrize("verb, model", sorted(PINNED_SMITH_STDOUT))
    def test_stdout_sha256(self, capsys, verb, model):
        flags = () if verb == "subdivide" else ("--repair",)
        code, out = run_cli(capsys, "smith", verb, *flags, "--model", model)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SMITH_STDOUT[verb, model]

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
