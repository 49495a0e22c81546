"""The scripts run end to end at their smallest settings."""

import importlib.util
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_example1(tmp_path):
    proc = run_script("run_example1.py", "--dest", str(tmp_path), "--max-loops", "1")
    assert proc.returncode == 0, proc.stderr
    assert "strong improvement (budget 1, delta 1/2): yes" in proc.stdout
    assert (tmp_path / "example1.game").exists()
    assert (tmp_path / "witness.rm").exists()


def test_run_reductions():
    proc = run_script("run_reductions.py", "--instances", "1", "--cities", "3",
                      "--skip-hamiltonian")
    assert proc.returncode == 0, proc.stderr
    assert "tour games: 1 instances, 3 cities" in proc.stdout


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_reductions_checks_hamiltonian_decisions():
    proc = run_script("run_reductions.py", "--instances", "1", "--cities", "3",
                      "--max-vertices", "3")
    assert proc.returncode == 0, proc.stderr
    decisions = [line.strip().split(" (")[0] for line in proc.stdout.splitlines()
                 if line.startswith("  3-")]
    assert decisions == ["3-cycle, strong: yes", "3-cycle, weak: no",
                         "3-vertex fork, strong: no", "3-vertex fork, weak: yes"]
    assert "MISMATCH" not in proc.stdout


def test_run_reductions_decides_complete_digraphs():
    proc = run_script("run_reductions.py", "--instances", "0", "--skip-hamiltonian",
                      "--complete", "3")
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines() if line.startswith("  K")]
    assert [line.split(" (")[0] for line in lines] == ["K3, strong: yes", "K3, weak: no"]
    # Each decision is printed with its time.
    assert all(line.endswith(" s)") for line in lines)


def test_run_reductions_exits_1_on_a_mismatch(monkeypatch, capsys):
    script = load_script("run_reductions.py")
    assert {name: script.has_hamiltonian_cycle(g) for name, g in script.GRAPHS.items()} == {
        "3-cycle": True, "3-vertex fork": False, "4-cycle + chord": True,
        "4-vertex fork": False, "4-vertex path": False, "two 2-cycles": False}
    # Every decision "yes": the strong one on the fork is wrong.
    monkeypatch.setattr(script, "decide_improvement",
                        lambda game, query: types.SimpleNamespace(decision=True))
    assert script.main(["--instances", "0", "--max-vertices", "3"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 2
    assert "3-vertex fork, strong: yes" in out and "3-cycle, weak: yes" in out


def test_answer_digest():
    proc = run_script("answer_digest.py", "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    decisions = [line.split(": ")[1].split()[0] for line in lines if line.startswith("decision ")]
    assert decisions == ["yes", "no", "no", "yes"]
    # Certify decisions: the running example, then seeds 0 and 1, strong then weak.
    certify = [line.split(": ", 1) for line in lines if line.startswith("certify ")]
    assert [tag for tag, _ in certify] == [
        f"certify {name} {mode}" for name in ("example1", "random 0", "random 1")
        for mode in ("strong", "weak")]
    assert [ans.split()[0] for _, ans in certify] == ["yes", "no", "no", "no", "no", "no"]
    # A yes names its witness machine's key and lasso; a no names neither.
    assert certify[0][1].startswith("yes 0 11/12 (0, ")
    assert " Lasso(prefix_states=" in certify[0][1]
    assert all(ans.endswith(" None None") for _, ans in certify[1:])
    assert sum(line.startswith("serialized ") for line in lines) == 4
    assert {line.split()[1] for line in lines if line.startswith("game ")} == {"0", "1"}
    # One machine digest per random game (seeds x player counts x fixed players),
    # plus one over the delivery machines.
    machines = [line for line in lines if line.startswith("game ") and " machines: " in line]
    assert len(machines) == 2 * 2 * 2
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in machines)
    assert sum(line.startswith("delivery machines 1-4: ") for line in lines) == 1


def test_answer_digest_is_pinned():
    """The 8-seed digest matches the committed one line by line, and a
    failure names every moved line; its header names the command that
    regenerates it."""
    pinned = [line for line in (ROOT / "tests" / "answer_digest_seeds8.txt")
              .read_text().splitlines() if not line.startswith("#")]
    proc = run_script("answer_digest.py", "--seeds", "8", PYTHONHASHSEED="0")
    assert proc.returncode == 0, proc.stderr
    fresh = proc.stdout.splitlines()
    moved = [f"digest line {k} moved:\n  pinned: {want}\n  fresh:  {got}"
             for k, (want, got) in enumerate(zip(pinned, fresh), 1) if got != want]
    assert not moved, f"{len(moved)} lines moved\n" + "\n".join(moved)
    assert len(fresh) == len(pinned), f"digest has {len(fresh)} lines, pinned {len(pinned)}"


def test_decision_corpus_is_pinned():
    """Every 7th game of the decision corpus answers as the committed file
    says, and a failure names every moved line.  The file is the whole
    output of ``PYTHONHASHSEED=0 PYTHONPATH=src python
    scripts/decision_corpus.py``: 12 decisions for each of 65 games."""
    pinned = (ROOT / "tests" / "decision_corpus.txt").read_text().splitlines()
    assert len(pinned) == 65 * 12
    want = [line for k in range(0, 65, 7) for line in pinned[12 * k:12 * (k + 1)]]
    proc = run_script("decision_corpus.py", "--games", "::7", PYTHONHASHSEED="0")
    assert proc.returncode == 0, proc.stderr
    fresh = proc.stdout.splitlines()
    moved = [f"pinned: {a}\n  fresh:  {b}" for a, b in zip(want, fresh) if a != b]
    assert not moved, f"{len(moved)} lines moved\n" + "\n".join(moved)
    assert len(fresh) == len(want)


def test_paper_and_certify_ledger():
    """Every decision of the pinned corpus where ``paper`` and ``certify``
    disagree, with its cause; parsed from the file, nothing is solved.

    * 64 strong, certify yes and paper no.  Paper's strong comparison
      quantifies over every agent-0 strategy, wasteful ones included, and
      in 63 its auxiliary worst lies below its base worst.  The other is
      ``random 9 3`` at delta 1/2: paper reads -31/32 against -1, while
      certify's winner has worst value 1/3.
    * 13 weak at delta 0, certify no and paper yes: paper's auxiliary value
      lies 1/32 or 1/16 above its base value, both under its epsilon 1/8,
      from two epsilon searches; certify's baseline is its improved value.
    * ``random 26 2`` weak at delta -1: paper values the auxiliary game's
      empty equilibrium set at a state where agent 0 has just paid.
    """
    answers = {}
    for line in (ROOT / "tests" / "decision_corpus.txt").read_text().splitlines():
        head, tail = line.split(": ", 1)
        *name, method, mode, delta = head.split(" ")
        answers[" ".join(name), method, mode, delta] = tail.split(" ")
    ledger: dict = {}
    for (name, method, mode, delta), got in answers.items():
        paper = answers[name, "paper", mode, delta]
        if method == "certify" and got[0] != paper[0]:
            base, aux = Fraction(paper[1]), Fraction(paper[2])
            ledger.setdefault((mode, delta, got[0]), []).append(
                (name, Fraction(got[1]), Fraction(got[2]), base, aux))
    assert {key: len(rows) for key, rows in ledger.items()} == {
        ("strong", "1/2", "yes"): 7, ("strong", "0", "yes"): 12,
        ("strong", "-1", "yes"): 45, ("weak", "0", "no"): 13, ("weak", "-1", "yes"): 1}
    strong = [row for delta in ("1/2", "0", "-1") for row in ledger["strong", delta, "yes"]]
    assert [row[0] for row in ledger["strong", "1/2", "yes"]] == [
        "example1", "gen_hamiltonian_game with", "gen_hamiltonian_complement_game without",
        "random 16 2", "random 37 2", "random 9 3", "random 13 3"]
    assert [row[0] for row in ledger["strong", "0", "yes"]] == [
        "example1", "gen_hamiltonian_game with", "gen_hamiltonian_complement_game without",
        "random 16 2", "random 20 2", "random 22 2", "random 37 2", "random 2 3",
        "random 13 3", "random 14 3", "random 16 3", "random 17 3"]
    wasteful = [row for row in strong if row[4] < row[3]]
    assert len(wasteful) == 63
    (odd,) = [row for row in strong if row[4] >= row[3]]
    assert odd == ("random 9 3", Fraction(-1), Fraction(1, 3), Fraction(-1), Fraction(-31, 32))
    gaps = {}
    for name, baseline, improved, base, aux in ledger["weak", "0", "no"]:
        assert baseline == improved
        gaps.setdefault(aux - base, []).append(name)
    assert gaps == {Fraction(1, 32): [
        "gen_hamiltonian_game with", "gen_hamiltonian_complement_game with", "random 10 2",
        "random 11 2", "random 21 2", "random 23 2", "random 37 2", "random 0 3",
        "random 3 3", "random 7 3", "random 14 3"],
        Fraction(1, 16): ["random 3 2", "random 9 2"]}
    assert ledger["weak", "-1", "yes"] == [("random 26 2", 1, 1, 1, 0)]
