import io
import json
from fractions import Fraction

import pytest

import eqdesign.cli
import eqdesign.design
import eqdesign.equilibria
from eqdesign.auxiliary import build_auxiliary
from eqdesign.cli import cli_main
from eqdesign.design import ImprovementQuery, decide_improvement
from eqdesign.equilibria import NashLassoSolver
from eqdesign.fileio import parse_game, parse_rm
from eqdesign.rewards import implement, is_beta_rm
from eqdesign.zerosum import SolverLimitError


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    text = out.getvalue()
    doc = json.loads(text[text.index("{"):]) if "{" in text else None
    return code, text, doc


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("fixtures")
    code, _, _ = run_cli(["gen", "example1", "--dest", str(dest)])
    assert code == 0
    return dest


class TestCompute:
    def test_worst_quarter_prints_eighth(self, fixture_dir):
        code, text, doc = run_cli(
            ["compute", "--worst", "--epsilon", "1/4", str(fixture_dir / "example1.game")])
        assert code == 0
        assert "1/8" in text
        assert doc["value"] == "1/8"

    def test_best(self, fixture_dir):
        code, _, doc = run_cli(
            ["compute", "--best", "--epsilon", "1/4", str(fixture_dir / "example1.game")])
        assert code == 0
        assert doc["value"] == "1"

    def test_fixed0_uses_auxiliary_game(self, fixture_dir):
        code, _, doc = run_cli(
            ["compute", "--best", "--fixed0", "--budget", "1",
             "--epsilon", "1/4", str(fixture_dir / "example1.game")])
        assert code == 0
        assert Fraction(3, 4) < Fraction(doc["value"]) <= 1

    def test_bad_epsilon_is_usage_error(self, fixture_dir):
        code, _, _ = run_cli(
            ["compute", "--worst", "--epsilon", "zero",
             str(fixture_dir / "example1.game")])
        assert code == 2

    def test_forbidden_transition_is_usage_error(self, fixture_dir, tmp_path, capsys):
        """A transition for a joint action the protocol forbids is refused,
        not dropped (the value would otherwise be 1/16)."""
        doc = json.loads((fixture_dir / "example1.game").read_text())
        doc["transitions"]["t"]["go_t"] = "t"
        bad = tmp_path / "bad.game"
        bad.write_text(json.dumps(doc))
        code, _, _ = run_cli(["compute", "--worst", "--epsilon", "1/8", str(bad)])
        assert code == 2
        assert "transitions.t.go_t" in capsys.readouterr().err


class TestCheckAndSynth:
    def test_strong_improvement_yes(self, fixture_dir):
        code, _, doc = run_cli([
            "check", "--mode", "strong", "--budget", "1", "--delta", "1/2",
            "--epsilon", "1/10", "--method", "certify",
            str(fixture_dir / "example1.game"),
        ])
        assert code == 0
        assert doc["decision"] is True
        assert Fraction(doc["improved_value"]) >= Fraction(2, 3) - Fraction(1, 10)

    def test_budget_past_the_vector_limit_answers(self, fixture_dir):
        """Certify builds no auxiliary game past 40 states, so it never lists
        the 5,001 reward vectors of budget 5000: "no", as from budget 10."""
        code, _, doc = run_cli([
            "check", "--mode", "strong", "--budget", "5000", "--delta", "1/2",
            "--epsilon", "1", str(fixture_dir / "example1.game"),
        ])
        assert code == 1
        assert (doc["decision"], doc["improved_value"]) == (False, "0")

    def test_failed_certificate_exits_three(self, fixture_dir, monkeypatch):
        def failing(solver, lasso):
            raise SolverLimitError("grim profile failed its exact best-response certificate")

        monkeypatch.setattr(NashLassoSolver, "_certify", failing)
        code, _, _ = run_cli([
            "check", "--mode", "strong", "--budget", "1", "--delta", "1/2",
            "--epsilon", "1/10", str(fixture_dir / "example1.game"),
        ])
        assert code == 3

    @pytest.mark.parametrize("method", ["paper", "certify"])
    def test_witness_lasso_named_by_its_game(self, tmp_path, method):
        """A paper-mode lasso is a play of the auxiliary game, a certify one a
        play of the witness machine's product; the document names its states
        by that game."""
        code, _, _ = run_cli(["gen", "random", "--seed", "14", "--players", "2",
                              "--states", "3", "--actions", "2", "--dest", str(tmp_path)])
        assert code == 0
        path = tmp_path / "random_14.game"
        argv = ["check", "--method", method, "--mode", "weak", "--budget", "1",
                "--delta", "1/2", "--epsilon", "1/8", str(path)]
        code, _, doc = run_cli(argv)
        assert code == 0 and "witness_lasso" in doc
        game = parse_game(path.read_text())
        ans = decide_improvement(game, ImprovementQuery(
            budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 8), mode="weak", method=method))
        owner = (build_auxiliary(game, 1).game if method == "paper"
                 else implement(game, ans.witness_rm))
        ans.witness_lasso.validate(owner)
        assert ans.witness_game.state_names == owner.state_names
        named = doc["witness_lasso"]
        assert named == ans.witness_lasso.describe(owner)
        assert set(named["prefix"] + named["cycle"]) <= set(owner.state_names)

    def test_paper_check_builds_the_auxiliary_game_once(self, tmp_path, monkeypatch):
        """The answer carries the game its lasso is a play of, so naming the
        lasso's states builds nothing again."""
        code, _, _ = run_cli(["gen", "random", "--seed", "14", "--players", "2",
                              "--states", "3", "--actions", "2", "--dest", str(tmp_path)])
        assert code == 0
        built = []

        def counting(game, budget):
            built.append(budget)
            return build_auxiliary(game, budget)

        monkeypatch.setattr(eqdesign.design, "build_auxiliary", counting)
        monkeypatch.setattr(eqdesign.cli, "build_auxiliary", counting)
        code, _, doc = run_cli(["check", "--method", "paper", "--mode", "weak",
                                "--budget", "1", "--delta", "1/2", "--epsilon", "1/8",
                                str(tmp_path / "random_14.game")])
        assert code == 0 and "witness_lasso" in doc
        assert built == [1]

    def test_oversized_delta_is_no(self, fixture_dir):
        code, _, doc = run_cli([
            "check", "--mode", "strong", "--budget", "1", "--delta", "10",
            "--epsilon", "1/10", str(fixture_dir / "example1.game"),
        ])
        assert code == 1
        assert doc["decision"] is False

    def test_synth_writes_verifiable_machine(self, fixture_dir, tmp_path):
        out_path = tmp_path / "witness.rm"
        code, _, doc = run_cli([
            "synth", "--mode", "strong", "--budget", "1", "--delta", "1/2",
            "--epsilon", "1/10", "--out", str(out_path),
            str(fixture_dir / "example1.game"),
        ])
        assert code == 0
        game = parse_game((fixture_dir / "example1.game").read_text())
        rm = parse_rm(out_path.read_text(), game)
        # One state per position of the replayed 12-state lasso, one absorbing.
        assert is_beta_rm(rm, 1) and rm.n_states == 13
        vcode, _, vdoc = run_cli([
            "verify", str(fixture_dir / "example1.game"), str(out_path),
            "--budget", "1",
        ])
        assert vcode == 0
        assert vdoc["within_budget"] is True
        assert Fraction(vdoc["product_worst_ne"]) - Fraction(vdoc["game_worst_ne"]) > Fraction(1, 2)

    def test_synth_no_writes_no_machine(self, fixture_dir, tmp_path):
        """Budget 0 admits only machines that pay nothing: a "no", and no file."""
        out_path = tmp_path / "m.rm"
        code, text, doc = run_cli([
            "synth", "--mode", "strong", "--budget", "0", "--delta", "1",
            "--epsilon", "1/8", str(fixture_dir / "example1.game"), "--out", str(out_path),
        ])
        assert code == 1
        assert "decision = no" in text
        assert not out_path.exists()
        assert doc["decision"] is False
        assert "machine_file" not in doc


class TestVerify:
    def test_example1_values(self, fixture_dir):
        code, text, doc = run_cli([
            "verify", str(fixture_dir / "example1.game"),
            str(fixture_dir / "example1_m1.rm"),
        ])
        assert code == 0
        assert doc["game_worst_ne"] == "0"
        assert doc["product_worst_ne"] == "2/3"
        assert "game_worst_ne = 0" in text

    @pytest.mark.parametrize("rm,value", [("example1_m1.rm", "2/3"), ("example1_m2.rm", "5/6")])
    def test_one_solver_per_game(self, fixture_dir, rm, value, monkeypatch):
        """The game's and the product's worst and best witnesses come from one
        solver per game; the document is unchanged."""
        built = []
        init = NashLassoSolver.__init__

        def counting(self, game, *args, **kwargs):
            built.append(game)
            init(self, game, *args, **kwargs)

        monkeypatch.setattr(NashLassoSolver, "__init__", counting)
        code, text, _ = run_cli([
            "verify", str(fixture_dir / "example1.game"), str(fixture_dir / rm),
            "--budget", "1",
        ])
        assert code == 0 and len(built) == 2
        assert text == (
            f"game_worst_ne = 0\nproduct_worst_ne = {value}\n"
            '{"command":"verify","game_best_ne":"1","game_worst_ne":"0",'
            f'"product_best_ne":"{value}","product_worst_ne":"{value}",'
            f'"within_budget":true,"worst_improvement":"{value}"}}\n')

    def test_bad_machine_refused_before_any_solve(self, fixture_dir, tmp_path, monkeypatch,
                                                  capsys):
        doc = json.loads((fixture_dir / "example1_m1.rm").read_text())
        del doc["rewards"]["q1"]["m"]
        bad = tmp_path / "bad.rm"
        bad.write_text(json.dumps(doc))

        def no_solver(*args, **kwargs):
            raise AssertionError("a solver was built before the machine was read")

        monkeypatch.setattr(eqdesign.cli, "NashLassoSolver", no_solver)
        code, _, _ = run_cli(["verify", str(fixture_dir / "example1.game"), str(bad),
                              "--budget", "1"])
        assert code == 2
        assert "rewards.q1.m" in capsys.readouterr().err

    def test_second_machine(self, fixture_dir):
        code, _, doc = run_cli([
            "verify", str(fixture_dir / "example1.game"),
            str(fixture_dir / "example1_m2.rm"),
        ])
        assert code == 0
        assert doc["product_worst_ne"] == "5/6"


class TestGen:
    @pytest.mark.parametrize("argv,expect", [
        (["gen", "a1"], "infinite_memory.game"),
        (["gen", "tsp", "--cities", "3", "--seed", "5"], "tsp_5.game"),
        (["gen", "random", "--seed", "2"], "random_2.game"),
        (["gen", "ham", "--edges", "v1>v2,v2>v3"], "hamiltonian.game"),
        (["gen", "ham-co", "--edges", "v1>v2,v2>v3"],
         "hamiltonian_complement.game"),
    ])
    def test_families_write_parsable_games(self, tmp_path, argv, expect):
        code, _, doc = run_cli(argv + ["--dest", str(tmp_path)])
        assert code == 0
        assert expect in doc["files"]
        parse_game((tmp_path / expect).read_text())

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["gen", "tsp", "--seed", "7", "--dest", str(a)])
        run_cli(["gen", "tsp", "--seed", "7", "--dest", str(b)])
        assert (a / "tsp_7.game").read_text() == (b / "tsp_7.game").read_text()

    def test_bad_edges_usage_error(self, tmp_path):
        code, _, _ = run_cli(["gen", "ham", "--edges", "v1v2", "--dest", str(tmp_path)])
        assert code == 2

    # Small and invalid sizes only: joint actions grow exponentially in players.
    @pytest.mark.parametrize("argv,message", [
        (["random", "--players", "0"], "players: 0 is not a positive count"),
        (["random", "--states", "0"], "states: 0 is not a positive count"),
        (["random", "--states", "-1"], "states: -1 is not a positive count"),
        (["random", "--actions", "0"], "actions: 0 is not a positive count"),
        (["tsp", "--cities", "1"], "tour games need a graph with at least one edge"),
        (["tsp", "--cities", "0"], "tour games need a graph with at least one edge"),
        (["tsp", "--cities", "-3"], "tour games need a graph with at least one edge"),
        (["ham", "--edges", "a>b>c"], "vertex name 'b>c' is empty or contains '>'"),
        (["ham", "--edges", ">b"], "vertex name '' is empty or contains '>'"),
        (["ham-co", "--edges", "a>"], "vertex name '' is empty or contains '>'"),
    ])
    def test_bad_sizes_and_graphs_refused_by_name(self, tmp_path, capsys, argv, message):
        code, text, _ = run_cli(["gen", *argv, "--dest", str(tmp_path)])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.game"
        bad.write_text("{broken")
        code, _, _ = run_cli(["compute", "--worst", "--epsilon", "1", str(bad)])
        assert code == 2

    def test_missing_file_is_two(self):
        code, _, _ = run_cli(["compute", "--worst", "--epsilon", "1", "no.game"])
        assert code == 2

    @pytest.mark.parametrize("case", ["verify-dir", "gen-dest-file", "synth-out-dir"])
    def test_os_error_is_two(self, case, fixture_dir, tmp_path, capsys):
        game = str(fixture_dir / "example1.game")
        existing = tmp_path / "taken"
        existing.write_text("")
        argv = {
            "verify-dir": ["verify", str(tmp_path)],
            "gen-dest-file": ["gen", "example1", "--dest", str(existing)],
            "synth-out-dir": ["synth", "--mode", "strong", "--budget", "1",
                              "--delta", "1/2", "--epsilon", "1/10",
                              "--out", str(tmp_path), game],
        }[case]
        code, _, _ = run_cli(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv,message", [
        (["compute", "--worst", "--budget", "3", "--epsilon", "1/4", "{game}"],
         "--budget applies only with --fixed0"),
        (["verify", "{game}", "--budget", "1"], "--budget applies only with a machine document"),
        (["gen", "ham", "--edges", ",", "--dest", "{tmp}"], "edges: at least one edge required"),
    ], ids=["compute-budget-without-fixed0", "verify-budget-without-machine", "gen-no-edges"])
    def test_refused_input_is_two(self, fixture_dir, tmp_path, capsys, argv, message):
        """Each is refused by name; a --budget the command would ignore was dropped."""
        paths = {"game": fixture_dir / "example1.game", "tmp": tmp_path}
        code, text, _ = run_cli([arg.format(**paths) for arg in argv])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ceiling_lattice_limit_is_three(self, tmp_path, fixture_dir, monkeypatch, capsys):
        code, _, _ = run_cli(["gen", "random", "--seed", "3", "--players", "3",
                              "--states", "4", "--actions", "2", "--dest", str(tmp_path)])
        assert code == 0
        argv = ["compute", "--worst", "--epsilon", "1/4", str(tmp_path / "random_3.game")]
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(eqdesign.equilibria, "CEILING_LIMIT", 2)
        code, _, _ = run_cli(argv)
        assert code == 3
        assert "limit: deviation ceiling lattice too large" in capsys.readouterr().err
        # example1's lattice is its two seeds, which count toward the limit.
        argv = ["compute", "--worst", "--epsilon", "1/4", str(fixture_dir / "example1.game")]
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(eqdesign.equilibria, "CEILING_LIMIT", 0)
        code, _, _ = run_cli(argv)
        assert code == 3
        assert "limit: deviation ceiling lattice too large" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [eqdesign.equilibria.LASSO_LENGTH_CAP + 1,
                                       99999999999999999999])
    @pytest.mark.parametrize("command", [
        ["compute", "--worst", "--epsilon", "1/4"],
        ["check", "--mode", "strong", "--budget", "1", "--delta", "1/2", "--epsilon", "1"],
        ["verify"],
    ], ids=lambda argv: argv[0])
    def test_lasso_length_cap_is_three(self, fixture_dir, capsys, command, bound):
        code, text, _ = run_cli([*command, "--bound", str(bound),
                                 str(fixture_dir / "example1.game")])
        assert code == 3 and text == ""
        cap = eqdesign.equilibria.LASSO_LENGTH_CAP
        assert capsys.readouterr().err == f"limit: lasso length bound {bound} exceeds {cap}\n"

    def test_unknown_subcommand_is_two(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_deterministic_output(self, fixture_dir):
        argv = ["compute", "--worst", "--epsilon", "1/4",
                str(fixture_dir / "example1.game")]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second
