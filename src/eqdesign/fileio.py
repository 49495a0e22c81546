"""Canonical JSON documents for games and reward machines.

A game document carries players, actions, states, the initial state, the
per-state protocol, the transition table (joint actions joined with
commas), per-player weight tables and the global table.  Serialization is
canonical: sorted keys, no insignificant whitespace, trailing newline -
parsing and re-serializing any accepted document is byte-stable, so a
document with anything the game would not keep (an unknown or repeated
key, player or state, a transition the protocol forbids, a protocol list
out of action order or with a repeat, an empty ``meta``) is refused.
"""

from __future__ import annotations

import json
from typing import Mapping

from .games import Game, GameStructureError, make_game
from .rewards import RewardMachine


class DocumentError(ValueError):
    """Malformed document; carries the offending key path or position."""


_GAME_KEYS = ("players", "actions", "states", "initial", "protocol", "transitions",
             "weights", "global_weights", "meta")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key, whose earlier values ``json``
    would drop, is refused."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [k for k, _ in pairs]
        raise DocumentError(f"{next(k for k in keys if keys.count(k) > 1)}: repeated key")
    return doc


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected an object")
    return doc


def _require(doc: Mapping, key: str, kind, path: str):
    if key not in doc:
        raise DocumentError(f"{path}{key}: missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(f"{path}{key}: expected {kind.__name__}")
    return value


def _names(doc: Mapping, key: str) -> list[str]:
    names = _require(doc, key, list, "")
    if not all(isinstance(x, str) for x in names):
        raise DocumentError(f"{key}: expected a list of names")
    return names


def parse_game(text: str) -> Game:
    """Parse and validate a game document; diagnostics name the key path."""
    doc = _load_object(text)
    for key in doc:
        if key not in _GAME_KEYS:
            raise DocumentError(f"{key}: unknown key")
    players = _names(doc, "players")
    actions = _names(doc, "actions")
    states = _names(doc, "states")
    initial = _require(doc, "initial", str, "")
    protocol_doc = _require(doc, "protocol", dict, "")
    transitions_doc = _require(doc, "transitions", dict, "")
    weights_doc = _require(doc, "weights", dict, "")
    global_doc = _require(doc, "global_weights", dict, "")

    for a in actions:
        if "," in a:
            raise DocumentError(f"actions.{a}: action names may not contain commas")

    action_pos = {a: k for k, a in enumerate(actions)}
    for sname, per_player in protocol_doc.items():
        if not isinstance(per_player, dict):
            raise DocumentError(f"protocol.{sname}: expected an object")
        for pname, acts in per_player.items():
            if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
                raise DocumentError(
                    f"protocol.{sname}.{pname}: expected a list of action names"
                )
            # The game keeps a protocol in action order; so must the document.
            order = [action_pos[a] for a in acts if a in action_pos]
            if order != sorted(set(order)):
                raise DocumentError(
                    f"protocol.{sname}.{pname}: actions repeated or not in action order"
                )

    transitions: dict[str, dict[tuple[str, ...], str]] = {}
    for sname, table in transitions_doc.items():
        if not isinstance(table, dict):
            raise DocumentError(f"transitions.{sname}: expected an object")
        parsed: dict[tuple[str, ...], str] = {}
        for joint, succ in table.items():
            if not isinstance(succ, str):
                raise DocumentError(f"transitions.{sname}.{joint}: expected a state name")
            parsed[tuple(joint.split(","))] = succ
        transitions[sname] = parsed

    for pname, table in weights_doc.items():
        if not isinstance(table, dict):
            raise DocumentError(f"weights.{pname}: expected an object")
    meta = doc.get("meta", {})
    # An empty meta object is not written back, so it is refused.
    if (not isinstance(meta, dict) or ("meta" in doc and not meta)
            or not all(isinstance(v, str) for v in meta.values())):
        raise DocumentError("meta: expected a nonempty object of strings")

    try:
        return make_game(
            players=players,
            actions=actions,
            states=states,
            initial=initial,
            protocol=protocol_doc,
            transitions=transitions,
            weights=weights_doc,
            global_weights=global_doc,
            meta=meta,
        )
    except GameStructureError as exc:
        raise DocumentError(str(exc))


def game_to_doc(game: Game) -> dict:
    protocol = {
        game.state_names[s]: {
            game.player_names[i]: [game.action_names[a] for a in game.protocol[i][s]]
            for i in range(game.n_players)
        }
        for s in range(game.n_states)
    }
    transitions = {
        game.state_names[s]: {
            ",".join(game.joint_action_names(joint)): game.state_names[succ]
            for joint, succ in game.arena.moves(s)
        }
        for s in range(game.n_states)
    }
    weights = {
        game.player_names[i]: {
            game.state_names[s]: game.weights[i][s] for s in range(game.n_states)
        }
        for i in range(game.n_players)
    }
    doc = {
        "players": list(game.player_names),
        "actions": list(game.action_names),
        "states": list(game.state_names),
        "initial": game.state_names[game.initial],
        "protocol": protocol,
        "transitions": transitions,
        "weights": weights,
        "global_weights": {
            game.state_names[s]: game.global_weights[s] for s in range(game.n_states)
        },
    }
    if game.meta:
        doc["meta"] = dict(game.meta)
    return doc


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_game(game: Game) -> str:
    return canonical_json(game_to_doc(game))


def parse_rm(text: str, game: Game) -> RewardMachine:
    """Parse a reward machine document against its target game.

    Anything the machine would not keep (an unknown or repeated key, a row
    for a machine state not in ``states``, an entry for a state the game
    does not have) is refused, so re-serializing an accepted document is
    byte-stable.
    """
    doc = _load_object(text)
    for key in doc:
        if key not in ("states", "initial", "transitions", "rewards"):
            raise DocumentError(f"{key}: unknown key")
    states = _names(doc, "states")
    initial = _require(doc, "initial", str, "")
    transitions = _require(doc, "transitions", dict, "")
    rewards = _require(doc, "rewards", dict, "")
    qid = {q: k for k, q in enumerate(states)}
    if len(qid) != len(states):
        raise DocumentError("states: duplicate machine state names")
    if initial not in qid:
        raise DocumentError(f"initial: unknown machine state {initial!r}")
    for key, table in (("transitions", transitions), ("rewards", rewards)):
        for q in table:
            if q not in qid:
                raise DocumentError(f"{key}.{q}: unknown machine state")

    step_rows = []
    reward_rows = []
    for q in states:
        t_table = transitions.get(q)
        if not isinstance(t_table, dict):
            raise DocumentError(f"transitions.{q}: missing or not an object")
        r_table = rewards.get(q)
        if not isinstance(r_table, dict):
            raise DocumentError(f"rewards.{q}: missing or not an object")
        for key, table in (("transitions", t_table), ("rewards", r_table)):
            for sname in table:
                if sname not in game.state_names:
                    raise DocumentError(f"{key}.{q}.{sname}: unknown game state")
        step_row = []
        reward_row = []
        for sname in game.state_names:
            if sname not in t_table:
                raise DocumentError(f"transitions.{q}.{sname}: missing")
            target = t_table[sname]
            if not isinstance(target, str) or target not in qid:
                raise DocumentError(
                    f"transitions.{q}.{sname}: unknown machine state {target!r}"
                )
            step_row.append(qid[target])
            if sname not in r_table:
                raise DocumentError(f"rewards.{q}.{sname}: missing")
            vec = r_table[sname]
            if (not isinstance(vec, list) or len(vec) != game.n_players
                    or any(isinstance(x, bool) or not isinstance(x, int) or x < 0
                           for x in vec)):
                raise DocumentError(
                    f"rewards.{q}.{sname}: expected {game.n_players} naturals"
                )
            reward_row.append(tuple(vec))
        step_rows.append(tuple(step_row))
        reward_rows.append(tuple(reward_row))
    return RewardMachine(
        state_names=tuple(states),
        initial=qid[initial],
        step=tuple(step_rows),
        rewards=tuple(reward_rows),
    )


def rm_to_doc(rm: RewardMachine, game: Game) -> dict:
    return {
        "states": list(rm.state_names),
        "initial": rm.state_names[rm.initial],
        "transitions": {
            rm.state_names[q]: {
                game.state_names[s]: rm.state_names[rm.step[q][s]]
                for s in range(game.n_states)
            }
            for q in range(rm.n_states)
        },
        "rewards": {
            rm.state_names[q]: {
                game.state_names[s]: list(rm.rewards[q][s])
                for s in range(game.n_states)
            }
            for q in range(rm.n_states)
        },
    }


def serialize_rm(rm: RewardMachine, game: Game) -> str:
    return canonical_json(rm_to_doc(rm, game))
