"""JSON interchange formats for surfaces, dividing sets, gluing data, modules.

The dividing-set format is the interchange unit for every CLI command:

    {
      "surface": {
        "pieces": [["ident", "plain", "mark", ...], ...],
        "identifications": [[[0, 0], [0, 6]], ...],
        "labels": ["-", "+", ...]
      },
      "crossings": [2],
      "chords": [[[0, 1], [0, 4]], ...],
      "closed": 0
    }

pieces lists each boundary word clockwise from the piece basepoint;
labels run over the plain tokens in reading order (piece by piece, token
by token).  Slot indices count marked points and seam crossings clockwise
from the basepoint; a bare integer slot abbreviates [0, slot].
"""

from __future__ import annotations

import json
from typing import Any

from . import gf2
from .gluemaps import BoundaryArc, GluingDatum
from .surfaces import (
    IDENT,
    MARK,
    PLAIN,
    DividingSet,
    MarkedSurface,
    SurfaceError,
    make_dividing_set,
    validate_surface,
)
from .tqftcore import TqftModule


class FormatError(ValueError):
    """The file content does not follow the documented schema."""


def surface_to_dict(surface: MarkedSurface) -> dict:
    pieces = []
    labels = []
    for word in surface.words:
        tokens = []
        for tok in word:
            tokens.append(tok[0])
            if tok[0] == PLAIN:
                labels.append("+" if tok[1] > 0 else "-")
        pieces.append(tokens)
    idents = [
        [list(pos_a), list(pos_b)] for pos_a, pos_b in surface.pairs
    ]
    return {"pieces": pieces, "identifications": idents, "labels": labels}


def _object(raw: Any, what: str) -> dict:
    if not isinstance(raw, dict):
        raise FormatError(f"{what} must be a JSON object, got {raw!r:.60}")
    return raw


def _array(raw: Any, what: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise FormatError(f"{what} must be a JSON array, got {raw!r:.60}")
    return raw


def _field(data: dict, key: str, what: str) -> Any:
    if key not in data:
        raise FormatError(f"{what} has no {key!r} key")
    return data[key]


def _int(raw: Any, what: str) -> int:
    """raw itself when it is a JSON integer; a float, string or bool is not."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise FormatError(f"{what} must be an integer, got {raw!r:.60}")
    return raw


def _int_pair(raw: Any, what: str) -> tuple[int, int]:
    if len(_array(raw, what)) != 2:
        raise FormatError(f"{what} must be two integers, got {raw!r:.60}")
    return _int(raw[0], what), _int(raw[1], what)


def surface_part(data: Any) -> Any:
    """The surface of a file: its "surface" value, else the whole object."""
    return _object(data, "file content").get("surface", data)


def surface_from_dict(data: Any) -> MarkedSurface:
    data = _object(data, "surface")
    pieces = _array(_field(data, "pieces", "surface"), "pieces")
    idents = _array(_field(data, "identifications", "surface"), "identifications")
    labels = _array(_field(data, "labels", "surface"), "labels")
    pairs = []
    pair_of_pos = {}
    for k, pair in enumerate(idents):
        if len(_array(pair, f"identification {k}")) != 2:
            raise FormatError(f"identification {k} must list two positions")
        pos_a, pos_b = (_int_pair(pos, f"identification {k}") for pos in pair)
        pairs.append((pos_a, pos_b))
        pair_of_pos[pos_a] = pair_of_pos[pos_b] = k
    labels_iter = iter(labels)
    words = []
    for p, tokens in enumerate(pieces):
        word = []
        for i, name in enumerate(_array(tokens, f"piece {p}")):
            if name == MARK:
                word.append((MARK,))
            elif name == PLAIN:
                try:
                    raw = next(labels_iter)
                except StopIteration:
                    raise FormatError("labels list is shorter than the plain tokens")
                if raw not in ("+", "-"):
                    raise FormatError(f"label must be '+' or '-', got {raw!r}")
                word.append((PLAIN, 1 if raw == "+" else -1))
            elif name == IDENT:
                if (p, i) not in pair_of_pos:
                    raise FormatError(f"identification segment at {(p, i)} is not listed")
                word.append((IDENT, pair_of_pos[(p, i)]))
            else:
                raise FormatError(f"unknown token {name!r}")
        words.append(tuple(word))
    if next(labels_iter, None) is not None:
        raise FormatError("labels list is longer than the plain tokens")
    surface = MarkedSurface(tuple(words), tuple(pairs))
    validate_surface(surface)
    return surface


def dividing_set_to_dict(surface: MarkedSurface, k: DividingSet) -> dict:
    chords = []
    for p, piece_chords in enumerate(k.chords):
        for a, b in piece_chords:
            chords.append([[p, a], [p, b]])
    return {
        "surface": surface_to_dict(surface),
        "crossings": list(k.crossings),
        "chords": chords,
        "closed": k.closed,
    }


def _slot_ref(raw: Any) -> tuple[int, int]:
    if isinstance(raw, int):
        return 0, _int(raw, "slot")
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return _int(raw[0], "slot piece"), _int(raw[1], "slot")
    raise FormatError(f"slot reference must be an int or [piece, slot]: {raw!r}")


def dividing_set_from_dict(data: Any) -> tuple[MarkedSurface, DividingSet]:
    data = _object(data, "dividing set")
    surface = surface_from_dict(_field(data, "surface", "dividing set"))
    raw_crossings = data.get("crossings", [0] * surface.num_pairs)
    crossings = tuple(_int(c, "crossing count") for c in _array(raw_crossings, "crossings"))
    if len(crossings) != surface.num_pairs:
        raise FormatError("crossings list must match the identification count")
    per_piece: list[list] = [[] for _ in surface.words]
    for raw in _array(data.get("chords", []), "chords"):
        if len(_array(raw, "chord")) != 2:
            raise FormatError(f"chord must pair two slots: {raw!r}")
        (pa, a), (pb, b) = _slot_ref(raw[0]), _slot_ref(raw[1])
        if pa != pb:
            raise FormatError("a chord cannot join different pieces")
        if not 0 <= pa < len(per_piece):
            raise FormatError(f"chord {raw!r} names piece {pa}, which does not exist")
        per_piece[pa].append((a, b))
    k = make_dividing_set(crossings, per_piece, _int(data.get("closed", 0), "closed"))
    return surface, k


def gluing_datum_to_dict(datum: GluingDatum) -> dict:
    return {
        "surface": surface_to_dict(datum.source),
        "gamma": [datum.gamma.piece, datum.gamma.start, datum.gamma.end],
        "gamma_prime": [
            datum.gamma_prime.piece,
            datum.gamma_prime.start,
            datum.gamma_prime.end,
        ],
    }


def gluing_datum_from_dict(data: Any) -> GluingDatum:
    data = _object(data, "gluing datum")
    surface = surface_from_dict(_field(data, "surface", "gluing datum"))
    arcs = []
    for key in ("gamma", "gamma_prime"):
        raw = _array(_field(data, key, "gluing datum"), key)
        if len(raw) != 3:
            raise FormatError(f"{key} must be [piece, start, end], got {raw!r:.60}")
        arcs.append(BoundaryArc(*(_int(x, key) for x in raw)))
    return GluingDatum(surface, *arcs)


def certificate_from_dict(data: Any) -> dict:
    """A lift certificate whose fields replay reads have the right shape.

    Whether the certificate is valid is for liftsearch.replay_certificate
    to decide; this only turns a malformed file into a FormatError.
    """
    data = _object(data, "certificate")
    out = dict(data)
    out["pattern"] = [
        [_int(v, "pattern entry") for v in _array(row, "pattern row")]
        for row in _array(_field(data, "pattern", "certificate"), "pattern")
    ]
    _field(data, "outcome", "certificate")
    if not isinstance(_field(data, "allow_signs", "certificate"), bool):
        raise FormatError("allow_signs must be true or false")
    for key in ("box", "assignments_checked"):
        out[key] = _int(_field(data, key, "certificate"), key)
    if "witness_count" in data:
        out["witness_count"] = _int(data["witness_count"], "witness_count")
    out["witnesses"] = [
        {key: _int_pair(_field(_object(w, "witness"), key, "witness"), key)
         for key in ("a", "b", "d", "phi1", "phi2", "phi3")}
        for w in _array(data.get("witnesses", []), "witnesses")
    ]
    if "steps" in data:
        steps = [dict(_object(step, "step")) for step in _array(data["steps"], "steps")]
        for step in steps:
            for key in ("value", "kernel", "vector"):
                if key in step:
                    step[key] = _int_pair(step[key], key)
            for key in ("derived", "required"):
                if key in step:
                    step[key] = _int(step[key], key)
        out["steps"] = steps
    return out


def module_to_dict(module: TqftModule) -> dict:
    """Stable export of a built module: generators, relations, basis."""
    return {
        "surface": surface_to_dict(module.surface),
        "bound": module.bound,
        "generators": [
            {
                "crossings": list(g.crossings),
                "chords": [[[p, a], [p, b]] for p in range(len(g.chords))
                           for a, b in g.chords[p]],
                "closed": g.closed,
                "grading": module.gradings[i],
            }
            for i, g in enumerate(module.generators)
        ],
        "relations": [gf2.set_bits(row) for row in module.relation_rows],
        "reduced_relation_rows": [gf2.set_bits(row) for row in module.reduced_rows],
        "basis_generators": list(module.basis_indices),
        "rank": module.rank,
        "graded_ranks": {str(e): r for e, r in sorted(module.graded_ranks().items())},
        "expected_rank": module.expected_rank,
        "warnings": list(module.warnings),
    }


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}")


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
