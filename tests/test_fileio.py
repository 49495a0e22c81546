import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_game,
    gen_infinite_memory_example,
    gen_random_game,
    gen_tsp_game,
)
from eqdesign.cli import cli_main
from eqdesign.fileio import (
    DocumentError,
    canonical_json,
    parse_game,
    parse_rm,
    serialize_game,
    serialize_rm,
)


def fixture_games():
    game, m1, m2 = gen_example1()
    costs = {e: 2 for e in complete_digraph(3).edges}
    yield "example1", game
    yield "tsp", gen_tsp_game(complete_digraph(3, costs))
    yield "ham", gen_hamiltonian_game(
        CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v2", "v3"), ("v3", "v1"))))
    yield "a1", gen_infinite_memory_example()
    yield "random", gen_random_game(9, n_players=3, n_states=4, n_actions=3)


class TestGameRoundTrip:
    @pytest.mark.parametrize("name,game", list(fixture_games()))
    def test_serialize_parse_is_identity(self, name, game):
        text = serialize_game(game)
        again = serialize_game(parse_game(text))
        assert again == text

    @pytest.mark.parametrize("name,game", list(fixture_games()))
    def test_reserialization_matches_canonical_form(self, name, game):
        text = serialize_game(game)
        pretty = json.dumps(json.loads(text), indent=2, sort_keys=False)
        assert serialize_game(parse_game(pretty)) == canonical_json(json.loads(pretty)) == text

    def test_example1_shape(self):
        game, _, _ = gen_example1()
        parsed = parse_game(serialize_game(game))
        assert parsed.n_states == 4
        assert parsed.n_players == 1
        assert parsed.state_names == ("t", "l", "m", "r")


class TestGameErrors:
    def test_missing_global_weight_names_the_state(self):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        del doc["global_weights"]["m"]
        with pytest.raises(DocumentError, match=r"global_weights\.m"):
            parse_game(json.dumps(doc))

    def test_empty_protocol_rejected(self):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        doc["protocol"]["t"]["p1"] = []
        with pytest.raises(DocumentError, match="empty protocol"):
            parse_game(json.dumps(doc))

    def test_unknown_transition_target(self):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        doc["transitions"]["t"]["go_l"] = "nowhere"
        with pytest.raises(DocumentError, match="transitions.t"):
            parse_game(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_game("{not json")

    @pytest.mark.parametrize("old,new,key", [
        ('{', '{"initial":"l",', "initial"),
        ('"global_weights":{', '"global_weights":{"l":99,', "l"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_rejected(self, old, new, key, tmp_path):
        """json keeps a repeated key's last value; the document is refused."""
        text = serialize_game(gen_example1()[0]).replace(old, new, 1)
        assert json.loads(text) == json.loads(serialize_game(gen_example1()[0]))
        with pytest.raises(DocumentError, match=f"^{key}: repeated key$"):
            parse_game(text)
        path = tmp_path / "bad.game"
        path.write_text(text)
        assert cli_main(["verify", str(path)], out=io.StringIO()) == 2

    def test_comma_in_action_name_rejected(self):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        doc["actions"].append("a,b")
        with pytest.raises(DocumentError, match="comma"):
            parse_game(json.dumps(doc))


    @pytest.mark.parametrize("value", [1.5, "7", True])
    @pytest.mark.parametrize("table,path", [
        (("weights", "p1", "m"), r"weights\.p1\.m"),
        (("global_weights", "m"), r"global_weights\.m"),
    ], ids=["player", "global"])
    def test_non_integer_weight_rejected(self, table, path, value):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        entry = doc
        for key in table[:-1]:
            entry = entry[key]
        entry[table[-1]] = value
        with pytest.raises(DocumentError, match=path):
            parse_game(json.dumps(doc))

    def test_non_integer_weight_exits_with_usage_error(self, tmp_path):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        doc["weights"]["p1"]["m"] = 1.5
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        assert cli_main(["verify", str(path)], out=io.StringIO()) == 2


    @pytest.mark.parametrize("mutate,path", [
        (lambda doc: doc["weights"].update(p1=5), r"weights\.p1"),
        (lambda doc: doc["protocol"].update(t=["go_l"]), r"protocol\.t"),
        (lambda doc: doc["protocol"]["t"].update(p1=5), r"protocol\.t\.p1"),
        (lambda doc: doc["protocol"]["t"].update(p1="go_l"), r"protocol\.t\.p1"),
        (lambda doc: doc["protocol"]["t"].update(p1=[3]), r"protocol\.t\.p1"),
        (lambda doc: doc["transitions"]["t"].update(go_l=["l"]), r"transitions\.t\.go_l"),
        (lambda doc: doc["states"].append(7), "states"),
        (lambda doc: doc["players"].append(["p2"]), "players"),
        (lambda doc: doc["actions"].append(None), "actions"),
        (lambda doc: doc.update(meta=["x"]), "meta"),
        (lambda doc: doc.update(meta={"family": 1}), "meta"),
        (lambda doc: doc.update(meta={}), "meta"),
        (lambda doc: doc.update(extra={}), "extra"),
        (lambda doc: doc["transitions"]["t"].update(go_t="t"), r"transitions\.t\.go_t"),
        (lambda doc: doc["weights"].update(p2={}), r"weights\.p2"),
        (lambda doc: doc["weights"]["p1"].update(x=0), r"weights\.p1\.x"),
        (lambda doc: doc["global_weights"].update(x=0), r"global_weights\.x"),
        (lambda doc: doc["protocol"]["t"]["p1"].reverse(), r"protocol\.t\.p1"),
        (lambda doc: doc["protocol"]["t"]["p1"].insert(0, "go_l"), r"protocol\.t\.p1"),
        (lambda doc: doc["states"].append("t"), "duplicate player/action/state names"),
        (lambda doc: doc.update(initial="x"), "unknown initial state 'x'"),
        (lambda doc: doc["protocol"].update(x={}), r"protocol\.x: unknown state"),
        (lambda doc: doc["protocol"]["t"].update(p9=[]), r"protocol\.t\.p9: unknown player"),
        (lambda doc: doc["protocol"]["t"]["p1"].append("fly"),
         r"protocol\.t\.p1: unknown action 'fly'"),
        (lambda doc: doc["transitions"].update(x={}), r"transitions\.x: unknown state"),
        (lambda doc: doc["transitions"]["t"].update({"go_l,go_l": "l"}),
         r"transitions\.t: joint action arity mismatch"),
        (lambda doc: doc["transitions"]["t"].update(fly="l"),
         r"transitions\.t: unknown action 'fly'"),
        (lambda doc: doc["weights"].pop("p1"), r"weights\.p1: missing table"),
        (lambda doc: doc["weights"]["p1"].pop("m"), r"weights\.p1\.m: missing entry"),
        (lambda doc: doc.pop("initial"), "initial: missing"),
        (lambda doc: doc.update(initial=3), "initial: expected str"),
        (lambda doc: doc["transitions"].update(t=[]), r"transitions\.t: expected an object"),
        (lambda doc: doc["transitions"]["t"].pop("go_l"),
         r"missing transition at state 't' for joint action \('go_l',\)"),
    ], ids=["weights-table", "protocol-state", "protocol-number", "protocol-string", "protocol-action",
            "transition-target", "state-name", "player-name", "action-name",
            "meta", "meta-value", "meta-empty", "unknown-key", "forbidden-transition",
            "weights-player", "weights-state", "global-state", "protocol-order",
            "protocol-repeat", "duplicate-name", "initial-unknown", "protocol-unknown-state",
            "protocol-unknown-player", "protocol-unknown-action", "transitions-unknown-state", "transitions-arity",
            "transitions-unknown-action", "weights-missing-table", "weights-missing-entry",
            "initial-missing", "initial-number", "transitions-row-list",
            "transition-missing"])
    def test_malformed_shape_names_the_key_path(self, mutate, path, tmp_path):
        game, _, _ = gen_example1()
        doc = json.loads(serialize_game(game))
        mutate(doc)
        with pytest.raises(DocumentError, match=path):
            parse_game(json.dumps(doc))
        bad = tmp_path / "bad.game"
        bad.write_text(json.dumps(doc))
        assert cli_main(["verify", str(bad)], out=io.StringIO()) == 2


class TestMachineDocuments:
    def test_round_trip(self):
        game, m1, m2 = gen_example1()
        for rm in (m1, m2):
            text = serialize_rm(rm, game)
            again = serialize_rm(parse_rm(text, game), game)
            assert again == text

    def test_missing_reward_entry_named(self):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        del doc["rewards"]["q1"]["m"]
        with pytest.raises(DocumentError, match=r"rewards\.q1\.m"):
            parse_rm(json.dumps(doc), game)

    def test_unknown_machine_state(self):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        doc["transitions"]["q0"]["t"] = "q9"
        with pytest.raises(DocumentError, match="q9"):
            parse_rm(json.dumps(doc), game)

    def test_wrong_vector_arity(self):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        doc["rewards"]["q0"]["t"] = [0, 0]
        with pytest.raises(DocumentError, match="naturals"):
            parse_rm(json.dumps(doc), game)

    def test_negative_reward_rejected(self):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        doc["rewards"]["q0"]["t"] = [-1]
        with pytest.raises(DocumentError, match="naturals"):
            parse_rm(json.dumps(doc), game)

    def test_bool_reward_rejected(self):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        doc["rewards"]["q0"]["t"] = [True]
        with pytest.raises(DocumentError, match=r"rewards\.q0\.t"):
            parse_rm(json.dumps(doc), game)

    def test_bool_reward_exits_with_usage_error(self, tmp_path):
        game, m1, _ = gen_example1()
        doc = json.loads(serialize_rm(m1, game))
        doc["rewards"]["q0"]["t"] = [True]
        game_path, rm_path = tmp_path / "g.game", tmp_path / "bad.rm"
        game_path.write_text(serialize_game(game))
        rm_path.write_text(json.dumps(doc))
        assert cli_main(["verify", str(game_path), str(rm_path)], out=io.StringIO()) == 2


# Refused machine documents, as (mutation of m1's document, the message
# naming the offending key path or position).
RM_REFUSALS = {
    "syntax error": (lambda doc: "{", "syntax error at line 1"),
    "top level": (lambda doc: [doc], "top level: expected an object"),
    "nested states": (lambda doc: {**doc, "states": [["q0"]]},
                      "states: expected a list of names"),
    "duplicate state": (lambda doc: {**doc, "states": doc["states"] + ["q0"]},
                        "states: duplicate machine state names"),
    "unknown initial": (lambda doc: {**doc, "initial": "q9"},
                        "initial: unknown machine state 'q9'"),
    "unknown key": (lambda doc: {**doc, "meta": {}}, "meta: unknown key"),
    "repeated key": (lambda doc: json.dumps(doc)[:-1] + ', "initial": "q0"}',
                     "initial: repeated key"),
    "missing row": (lambda doc: {**doc, "transitions": {
        q: row for q, row in doc["transitions"].items() if q != "q1"}},
        r"transitions\.q1: missing"),
    "missing rewards row": (lambda doc: {**doc, "rewards": {
        q: row for q, row in doc["rewards"].items() if q != "q1"}},
        r"rewards\.q1: missing or not an object"),
    "missing transition entry": (lambda doc: {**doc, "transitions": {
        **doc["transitions"], "q1": {
            s: t for s, t in doc["transitions"]["q1"].items() if s != "m"}}},
        r"transitions\.q1\.m: missing"),
    "missing entry": (lambda doc: {**doc, "rewards": {
        **doc["rewards"], "q2": {"t": [0], "l": [0], "r": [0]}}},
        r"rewards\.q2\.m: missing"),
    "row for unknown state": (lambda doc: {**doc, "rewards": {
        **doc["rewards"], "q7": doc["rewards"]["q0"]}},
        r"rewards\.q7: unknown machine state"),
    "entry for unknown game state": (lambda doc: {**doc, "transitions": {
        **doc["transitions"], "q0": {**doc["transitions"]["q0"], "x": "q0"}}},
        r"transitions\.q0\.x: unknown game state"),
    "non-name target": (lambda doc: {**doc, "transitions": {
        **doc["transitions"], "q0": {**doc["transitions"]["q0"], "t": ["q1"]}}},
        r"transitions\.q0\.t: unknown machine state"),
}


class TestMachineRefusals:
    @pytest.mark.parametrize("case", sorted(RM_REFUSALS))
    def test_refused_by_key_path_with_exit_2(self, case, tmp_path):
        mutate, message = RM_REFUSALS[case]
        doc = mutate(copy.deepcopy(MUTATION_DOCS["example1 m1"]))
        text = doc if isinstance(doc, str) else json.dumps(doc)
        game = gen_example1()[0]
        with pytest.raises(DocumentError, match=message):
            parse_rm(text, game)
        game_path, rm_path = tmp_path / "example1.game", tmp_path / "bad.rm"
        game_path.write_text(serialize_game(game))
        rm_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["verify", str(game_path), str(rm_path)], out=io.StringIO())
        assert code == 2
        assert err.getvalue().startswith("error: ")


def _mutation_docs():
    game, m1, m2 = gen_example1()
    costs = {e: 2 for e in complete_digraph(3).edges}
    return {
        "example1": json.loads(serialize_game(game)),
        "tsp": json.loads(serialize_game(gen_tsp_game(complete_digraph(3, costs)))),
        "example1 m1": json.loads(serialize_rm(m1, game)),
        "example1 m2": json.loads(serialize_rm(m2, game)),
    }


MUTATION_DOCS = _mutation_docs()
# Machine documents are read against the example1 game.
MACHINE_FAMILIES = ("example1 m1", "example1 m2")


def _nodes(doc, path=()):
    """Paths of every object and list in ``doc``, the root included."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        yield path
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))


def _names_in(doc) -> list[str]:
    if isinstance(doc, dict):
        return [n for key, value in doc.items() for n in [key, *_names_in(value)]]
    if isinstance(doc, list):
        return [n for value in doc for n in _names_in(value)]
    return [doc] if isinstance(doc, str) else []


class TestMutatedDocuments:
    """Every single mutation of a valid game or machine document is rejected
    or kept verbatim."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(sorted(MUTATION_DOCS)), st.data())
    def test_rejected_or_byte_stable(self, family, data):
        doc = copy.deepcopy(MUTATION_DOCS[family])
        names = sorted(set(_names_in(doc))) + ["x", "", "meta"]
        values = st.one_of(
            st.sampled_from(names),
            st.integers(-3, 3),
            st.sampled_from([1.5, True, None, [], {}]),
            st.lists(st.sampled_from(names), max_size=3),
            st.dictionaries(st.sampled_from(names), st.sampled_from(names), max_size=2),
        )
        path = data.draw(st.sampled_from(list(_nodes(doc))))
        node = doc
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = data.draw(st.sampled_from(["drop", "add", "replace", "permute"]))
        if op in ("drop", "replace") and keys:
            key = data.draw(st.sampled_from(keys))
            if op == "drop":
                del node[key]
            else:
                node[key] = data.draw(values)
        elif op == "permute" and isinstance(node, list):
            node[:] = data.draw(st.permutations(node))
        elif isinstance(node, dict):
            node[data.draw(st.sampled_from(names))] = data.draw(values)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(values))
        text = json.dumps(doc)
        example1 = gen_example1()[0]
        machine = family in MACHINE_FAMILIES
        try:
            if machine:
                again = serialize_rm(parse_rm(text, example1), example1)
            else:
                again = serialize_game(parse_game(text))
        except DocumentError:
            pass
        else:
            assert again == canonical_json(json.loads(text))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.doc"
            path.write_text(text)
            argv = ["verify", str(path)]
            if machine:
                game_path = Path(tmp) / "example1.game"
                game_path.write_text(serialize_game(example1))
                argv = ["verify", str(game_path), str(path)]
            assert cli_main(argv, out=io.StringIO()) in (0, 2, 3)
