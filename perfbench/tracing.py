"""Per-layer counters and stage replay for the traced run.

Counting works from outside the program: `install` replaces public
functions in every `curvetqft` module namespace that binds them with
wrappers that count calls and time them while tracing is active.  After
the timed phase, `replay` rebuilds each module the phase built by calling
the layer functions one stage at a time, and checks that the replayed
relation rows are the ones `build_module` produced, so the stage times
measure the same work as a build.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from curvetqft import gf2, surfaces, tqftcore

import cases

_active = False
counts: dict[str, float] = defaultdict(float)
builds: list = []  # (surface, bound, module) built while active
_regions_seen: set = set()


def start() -> None:
    global _active
    counts.clear()
    builds.clear()
    _regions_seen.clear()
    _active = True


def stop() -> None:
    global _active
    _active = False


def _timed(fn, name, extra=None):
    """Count and time calls of fn as `<name>_calls` and `<name>_s`.

    extra(args, result, elapsed) returns further counts to add for a call.
    """
    def wrapper(*args, **kwargs):
        if not _active:
            return fn(*args, **kwargs)
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t
        counts[name + "_s"] += elapsed
        counts[name + "_calls"] += 1
        if extra is not None:
            for key, value in extra(args, result, elapsed).items():
                counts[key] += value
        return result
    return wrapper


def _counted(fn, name, seen=None):
    """Count calls of fn as `<name>`, for functions too hot to time.

    seen(args) returns a key recorded in the set of distinct calls.
    """
    def wrapper(*args, **kwargs):
        if _active:
            counts[name] += 1
            if seen is not None:
                _regions_seen.add(seen(args))
        return fn(*args, **kwargs)
    return wrapper


def _build_extra(args, module, elapsed):
    surface = args[0]
    bound = args[1] if len(args) > 1 else tqftcore.DEFAULT_BOUND
    builds.append((surface, bound, module))
    return {"build_s." + cases.label_of(surface, bound): elapsed}


def install() -> None:
    """Wrap the traced functions in every loaded curvetqft namespace."""
    from curvetqft import gluemaps, liftsearch

    wrappers = {
        surfaces.analyze_regions: _counted(
            surfaces.analyze_regions, "analyze_regions_calls",
            lambda args: (args[0], args[1].encode()),
        ),
        surfaces.canonicalize: _timed(
            surfaces.canonicalize, "canonicalize",
            lambda args, result, _: {"noncanonical": result is not args[1]},
        ),
        tqftcore.class_of: _timed(
            tqftcore.class_of, "class_of",
            lambda args, result, _: {"class_of_zero": result.is_zero},
        ),
        tqftcore.build_module: _timed(tqftcore.build_module, "build_module", _build_extra),
        gluemaps.glue_map: _timed(
            gluemaps.glue_map, "glue_map",
            lambda args, result, _: {"images": len(result.images)},
        ),
        liftsearch.search_lift: _timed(
            liftsearch.search_lift, "search_lift",
            lambda args, result, _: {
                "assignments_checked": result.certificate["assignments_checked"]
            },
        ),
        liftsearch.replay_certificate: _timed(
            liftsearch.replay_certificate, "replay_certificate"
        ),
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "curvetqft":
            continue
        for name, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                setattr(mod, name, wrappers[value])
    surfaces.SlotLayout.interval_for_word_position = _counted(
        surfaces.SlotLayout.interval_for_word_position, "interval_lookups"
    )


def snapshot() -> dict:
    out = dict(counts)
    out["analyze_regions_distinct"] = len(_regions_seen)
    return out


def replay(surface, bound, module) -> dict:
    """Rebuild one module stage by stage; returns stage times and counts.

    Mirrors `build_module`: enumeration and grading, then every bypass
    surgery of every generator (a member with a closed component counts
    as zero), then `gf2.rref`, then `class_of` on every generator.
    Raises ValueError when the replay disagrees with the module, since
    the stage times would then measure other work.
    """
    t0 = time.perf_counter()
    generators = surfaces.enumerate_dividing_sets(surface, bound)
    index = {g.encode(): i for i, g in enumerate(generators)}
    for g in generators:
        surfaces.euler_grading(surface, g)
    t1 = time.perf_counter()
    rows = set()
    triples = set()
    yielded = 0
    for i, g in enumerate(generators):
        for _, front, back in surfaces.iter_bypass_surgeries(surface, g):
            yielded += 1
            triples.add(frozenset((g.encode(), front.encode(), back.encode())))
            row = 1 << i
            for member in (front, back):
                if member.closed == 0:
                    row ^= 1 << index[member.encode()]
            if row:
                rows.add(row)
    t2 = time.perf_counter()
    _, pivots = gf2.rref(rows)
    t3 = time.perf_counter()
    for g in generators:
        tqftcore.class_of(module, g)
    t4 = time.perf_counter()
    if tuple(generators) != module.generators:
        raise ValueError("replayed generators differ from build_module's")
    if rows != set(module.relation_rows):
        raise ValueError("replayed relation rows differ from build_module's")
    if tuple(pivots) != module.pivots:
        raise ValueError("replayed rref pivots differ from build_module's")
    return {
        "enumerate_s": t1 - t0,
        "generators": len(generators),
        "surgery_s": t2 - t1,
        "surgeries_yielded": yielded,
        "distinct_triples": len(triples),
        "distinct_rows": len(rows),
        "rref_s": t3 - t2,
        "rref_rows": len(rows),
        "pivots": len(pivots),
        "generator_classes_s": t4 - t3,
    }
