"""Byte stability of `module --format machine` on a fixed ladder of surfaces.

The digests are sha256 sums of the command's standard output, recorded
before bypass enumeration skipped trivial and reversed arcs and graded each
dividing set once per build.  Any change to generators, relation rows,
reduced rows, pivots or graded ranks changes them.

The canonicalize digest locks the bigon reduction of a seeded stream of
random, possibly uncolorable dividing sets, recorded before the reduction
worked on fixed slot keys.  The region digest locks colorability,
grading, isolation and the region multiset of such sets, recorded before
region analysis ran as one union-find pass.  The validation digest locks
which of these sets, valid or corrupted in one of six ways, validation
accepts and the message of each rejection, recorded before validation
read each piece's chords in one walk.

The surface topology digest locks arc attachments, cuts, reglued targets
and surface validation, recorded before validation, cutting and gluing
shared one boundary walk and one word rewrite.

The seam module digests hash the same machine-format JSON on surfaces
with identification segments, where a raw bypass member can hold a
bigon: annulus(2,2) in all four corner labellings at bounds 0-4,
annulus(2,4) and annulus(4,2) at bound 3, punctured_torus(2) at bounds
1-4, punctured_torus(6) at bound 3, disk(14), punctured_torus(2) plus
annulus(2,2) at bound 3, and the three attach_arc_datum(3, j) targets at
bound 2.  They were recorded before enumeration skipped bigon chords,
each bypass triple was realized from one of its members, and rref ran
per grading block.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from curvetqft import fileio
from curvetqft import surfaces as sf
from curvetqft.cli import main
from curvetqft.gluemaps import GluingError, attach_arc_datum, cut_surface, glue_surfaces
from curvetqft.tqftcore import build_module, expected_graded_ranks

DIGESTS = {
    ("--disk", "2", "--bound", "0"):
        "0178076f95669fbdf1e5541c91a93699390c2bbc18a73c71584edd6346cb26c7",
    ("--disk", "4", "--bound", "0"):
        "8c9844ba64ff5a962aca68ee3a0d01f7903d3fcf3d187eb3ad2b80a0258386b9",
    ("--disk", "6", "--bound", "0"):
        "7c6ebe89d345e5853e95984d104a6f0f40cb06838b480354a5b64ff8255ae383",
    ("--disk", "8", "--bound", "0"):
        "9faed6cca4b52769be3a712bb434d078dfee51bcfbd21bb60151e212b98af4b1",
    ("--disk", "10", "--bound", "0"):
        "2c9a47f9f8fcb3e710f00a7a5d13e9d7db16453852c59a21b878ab2125407514",
    ("--disk", "12", "--bound", "0"):
        "c362972f92f19376fa07fd49373b5ce8e571f135a095cc03ba7ebd364696121f",
    ("--disk", "16", "--bound", "0"):
        "bb07238ac7cef77d78a16b8a0379cfca945dc8a4ac34d6c78656603944f35410",
    ("--annulus", "2", "2", "--bound", "3"):
        "dc33e5c992126f7c2e2b5bc92af0d2904e315f36549f89ee9ad29002e9786169",
    ("--annulus", "2", "2", "--bound", "4"):
        "55bd61b5c36a0d33043c6f3a78b424e64ce4702d9d8dd47c56fd6d53059d511a",
    ("--annulus", "4", "4", "--bound", "3"):
        "328074e3dcd20edf1e304eda729d84664c1ef42759b2c4888f169eca31c3405a",
    ("--punctured-torus", "2", "--bound", "3"):
        "3db5966f0dc9213bcf14d6abed6a3caf43f92b15685fb1638ad8401dfd68c19f",
    ("--punctured-torus", "4", "--bound", "3"):
        "682bf4d87cc919b114e4e52e6e9f024814443906a145a8f3e1bea065a77124b0",
}


@pytest.mark.parametrize("flags", sorted(DIGESTS), ids=" ".join)
def test_module_machine_digest(flags, capsys):
    code = main(["module", *flags, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[flags]


CORNERS = ((sf.NEG, sf.NEG), (sf.NEG, sf.POS), (sf.POS, sf.NEG), (sf.POS, sf.POS))


def _seam_surface(name):
    """The surface a SEAM_DIGESTS key names."""
    kind, *args = name
    if kind == "annulus":
        return sf.annulus(*args)
    if kind == "torus":
        return sf.punctured_torus(*args)
    if kind == "disk":
        return sf.disk(*args)
    if kind == "union":
        return sf.disjoint_union(sf.punctured_torus(2), sf.annulus(2, 2))
    return glue_surfaces(attach_arc_datum(3, *args)).target


# (surface name, bound) -> sha256 of the module's machine-format JSON.
SEAM_DIGESTS = {
    (("annulus", 2, 2, CORNERS[0]), 0):
        "b7986866ccb5a58c2e270711714d59b8fd438a67723f311557a5cf888939f2ff",
    (("annulus", 2, 2, CORNERS[0]), 1):
        "15d523142513841dd4097f9504eb4a89ca5d86c09318bd3665d225fc16c21ae0",
    (("annulus", 2, 2, CORNERS[0]), 2):
        "90f93ea46770ea4f557707e841390c7808c4f0e1de0c7fbf9af37ba6ff557713",
    (("annulus", 2, 2, CORNERS[0]), 3):
        "79fcdf8d2f5af0075b12df71fdbc2a072faf376e227d85afada1e91d3ece4bd1",
    (("annulus", 2, 2, CORNERS[0]), 4):
        "56fd08ff1eaba5b8008a6cffbdab59fac4a40d733d6509ddaa9ece2641848982",
    (("annulus", 2, 2, CORNERS[1]), 0):
        "17bb9ed10670e24991220dee41bb0696aab3c5df2361a92a953a2738a2f38c45",
    (("annulus", 2, 2, CORNERS[1]), 1):
        "043b3a107dd4307d4459458692f40e5217c0a8a492737fe485f50bb7445cb3b5",
    (("annulus", 2, 2, CORNERS[1]), 2):
        "6ef4066da2f08ca531703b89bb340695f7bc5ee39ab69b868aa9ef05b16d57e7",
    (("annulus", 2, 2, CORNERS[1]), 3):
        "30f70d70d1eadf72a196377f575cd7ad859e4d48a474956fbb798ffe41042f1c",
    (("annulus", 2, 2, CORNERS[1]), 4):
        "6d14ac90436df7bea62db5661f4360cd062f0986fa87d54f564b30ae86db2147",
    (("annulus", 2, 2, CORNERS[2]), 0):
        "7eb5fd9146f1e5c4462e28c186f0b9c27ad99fed5874b900dba39bc686216683",
    (("annulus", 2, 2, CORNERS[2]), 1):
        "e42963868092b57ec1cfff028a533e58f11fd52abbb26df9ed49e9c8aa8fedca",
    (("annulus", 2, 2, CORNERS[2]), 2):
        "cd4915f71738acf75012402f299db75d35f96759e0fc9e9e7a34d44aa65ad91a",
    (("annulus", 2, 2, CORNERS[2]), 3):
        "9e58a4ce09de9b34ce8b93ca7c3278d363e2e143d3456148a98a3f000e77f0eb",
    (("annulus", 2, 2, CORNERS[2]), 4):
        "33b999a0f41c59b705bb8c761e74fceffbc164a91cf95de719ee766b715b735d",
    (("annulus", 2, 2, CORNERS[3]), 0):
        "73573eb86cc5440cda7c2fbcd81cedb2b76d2be7bb3c43598ffb337128fc3a9b",
    (("annulus", 2, 2, CORNERS[3]), 1):
        "8bf2f3e4f8e5e63b385de8b2729e57495206f044d345f124987d0a88cebf26f9",
    (("annulus", 2, 2, CORNERS[3]), 2):
        "32b0a69d0f27d39db5d1168961b107b7e22552d00c1b5fe97dccc93ba830783b",
    (("annulus", 2, 2, CORNERS[3]), 3):
        "128af8e9e816a9a06aeff8adea80999d9077dee29c3e48f3d612f7b741355511",
    (("annulus", 2, 2, CORNERS[3]), 4):
        "867d3bcb05a9372b5aecb1ab8b10e86bca04fe80386aa7cae8b810a17ae1b9be",
    (("annulus", 2, 4), 3):
        "1a26389a72e091c6b256e37535a79e1ecf202b6f01ea255cbad275d8598953b1",
    (("annulus", 4, 2), 3):
        "01eb9e899de04da2f631c89d608d373f62a996899b667184c5c79f4162261817",
    (("torus", 2), 1):
        "e053ea7c2f0e3b6dc80478e10d8969db835e87890b473ae36b300a1191099f44",
    (("torus", 2), 2):
        "f8b150404f764f0acee6deb0b9478c818b2b7800eed6321031c15db3e00051c2",
    (("torus", 2), 3):
        "254eab9151da4d248147d198548fa9033365adffa5fa7ab7157ec8d4122ba5f1",
    (("torus", 2), 4):
        "dc52128bd968ac2887e93330020a4f24a85d0b71772594366b377052392da496",
    (("torus", 6), 3):
        "fb459ad6d1c0505cadcb8aee0f7935673cf0c6ed16ae24cc929ff85c3455f2eb",
    (("disk", 14), 0):
        "dc6bd3d1f6241ea11c6e80cb2cab81de47bdce7892681aaeaba95459fc3f6171",
    (("union",), 3):
        "8be9f96d93b9ae169cfed08278c90973f2e175aaf53d3b3e1d85f1618651d0ea",
    (("attach", 0), 2):
        "c591ddd11487f1daa9c92ee7cac6deb9103f0231404f121816e9d549d25041a3",
    (("attach", 1), 2):
        "3775041423bec0a4173f6e01db6de525f8c7f99966e24f5a31fe541c4cdaee30",
    (("attach", 2), 2):
        "c6ebcc3981d2f638e1663a4577ca3f7b99b821023cd8366fd41ea863c67284ed",
}


def _seam_id(case):
    name, bound = case
    return "-".join(map(str, name)).replace(" ", "") + f"@{bound}"


@pytest.mark.parametrize("case", list(SEAM_DIGESTS), ids=_seam_id)
def test_seam_module_digest(case):
    name, bound = case
    module = build_module(_seam_surface(name), bound)
    out = json.dumps(fileio.module_to_dict(module), indent=2, sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == SEAM_DIGESTS[case]


CANONICALIZE_SURFACES = [
    sf.disk(8),
    sf.annulus(2, 2),
    sf.annulus(2, 2, (sf.POS, sf.NEG)),
    sf.punctured_torus(2),
    sf.punctured_torus(4),
] + [glue_surfaces(attach_arc_datum(3, j)).target for j in range(3)]
CANONICALIZE_SETS_PER_SURFACE = 2000
CANONICALIZE_MAX_CROSSINGS = 5
CANONICALIZE_DIGEST = "381b40c0c08c71ba280726290bf5e0cc5125f4e5673aa40bf528982b510af205"


def _random_pairing(rng, num_slots):
    """A random non-crossing perfect matching of range(num_slots)."""
    chords = []
    stack = [(0, num_slots)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        partner = lo + 1 + 2 * rng.randrange((hi - lo) // 2)
        chords.append((lo, partner))
        stack.append((lo + 1, partner))
        stack.append((partner + 1, hi))
    return tuple(sorted(chords))


def _random_sets(surface, rng, count):
    """Seeded random dividing sets, colorable or not, some with circles."""
    made = 0
    while made < count:
        crossings = tuple(
            rng.randrange(CANONICALIZE_MAX_CROSSINGS + 1) for _ in range(surface.num_pairs)
        )
        layout = sf.layout_of(surface, sf.DividingSet(crossings, (), 0))
        counts = [layout.num_slots(p) for p in range(surface.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        chords = tuple(_random_pairing(rng, c) for c in counts)
        closed = rng.choice((0, 0, 0, 0, 1, 2))
        made += 1
        yield sf.DividingSet(crossings, chords, closed)


def test_canonicalize_digest():
    # Locks the ordered canonical forms, and that canonicalize returns
    # its argument itself exactly when it has no bigon: a removal drops
    # crossings, so the result equals k only when nothing was removed,
    # and the result is itself bigon-free.
    rng = random.Random(6)
    digest = hashlib.sha256()
    for surface in CANONICALIZE_SURFACES:
        for k in _random_sets(surface, rng, CANONICALIZE_SETS_PER_SURFACE):
            reduced = sf.canonicalize(surface, k)
            assert (reduced is k) == (reduced == k)
            assert sf.canonicalize(surface, reduced) is reduced
            digest.update(repr(reduced.encode()).encode())
    assert digest.hexdigest() == CANONICALIZE_DIGEST


REGION_SURFACES = CANONICALIZE_SURFACES + [sf.disjoint_union(sf.disk(4), sf.annulus(2, 2))]
REGION_SETS_PER_SURFACE = 400
REGION_DIGEST = "aa120c35bfa9e34c2b1780b4539502cfc2aadeb8a282572cf2bc6669f8ade117"


def _region_summary(surface, k):
    if not sf.is_colorable(surface, k):
        return None
    regions = sorted((r.sign, r.euler, r.touches_boundary) for r in sf.label_regions(surface, k))
    return (sf.euler_grading(surface, k), sf.is_isolating(surface, k), regions)


def test_region_digest():
    # Locks colorability, grading, isolation and the region multiset of
    # seeded random sets, raw and canonical; region order is free.
    rng = random.Random(7)
    digest = hashlib.sha256()
    for surface in REGION_SURFACES:
        for k in _random_sets(surface, rng, REGION_SETS_PER_SURFACE):
            for s in (k, sf.canonicalize(surface, k)):
                digest.update(repr(_region_summary(surface, s)).encode())
    assert digest.hexdigest() == REGION_DIGEST


VALIDATION_SETS_PER_SURFACE = 300
VALIDATION_DIGEST = "0392f8eeb79fc302d095df7ee77cecbb8290f2c6d464fd40ed917afcd60c01f4"


def _corruptions(rng, k):
    """(kind, set) pairs: k itself and k with one piece corrupted."""
    yield "valid", k
    pieces = [p for p, chords in enumerate(k.chords) if chords]
    if not pieces:
        return
    p = rng.choice(pieces)
    chords = list(k.chords[p])
    i = rng.randrange(len(chords))
    a, b = chords[i]
    last = 2 * len(chords) - 1
    end = next(j for j, chord in enumerate(chords) if chord[1] == last)

    def with_piece(new):
        return sf.DividingSet(
            k.crossings, k.chords[:p] + (tuple(new),) + k.chords[p + 1:], k.closed
        )

    yield "reversed", with_piece(chords[:i] + [(b, a)] + chords[i + 1:])
    yield "repeated", with_piece(chords[:i + 1] + chords[i:])
    yield "past-end", with_piece(
        chords[:end] + [(chords[end][0], last + 1)] + chords[end + 1:]
    )
    yield "dropped", with_piece(chords[:i] + chords[i + 1:])
    if len(chords) > 1:
        j = rng.randrange(len(chords) - 1)
        swapped = chords[:j] + [chords[j + 1], chords[j]] + chords[j + 2:]
        yield "swapped", with_piece(swapped)
        j = rng.choice([x for x in range(len(chords)) if x != i])
        x1, x2, x3, x4 = sorted(chords[i] + chords[j])
        rest = [c for x, c in enumerate(chords) if x not in (i, j)]
        yield "crossing", with_piece(sorted(rest + [(x1, x3), (x2, x4)]))


def test_validation_digest():
    # Locks acceptance and the exact message of every rejection.
    rng = random.Random(8)
    digest = hashlib.sha256()
    for surface in CANONICALIZE_SURFACES:
        for k in _random_sets(surface, rng, VALIDATION_SETS_PER_SURFACE):
            for kind, s in _corruptions(rng, k):
                try:
                    sf.validate_dividing_set(surface, s)
                    outcome = "ok"
                except sf.DividingSetError as exc:
                    outcome = str(exc)
                digest.update(repr((kind, outcome)).encode())
    assert digest.hexdigest() == VALIDATION_DIGEST


TOPOLOGY_PRESETS = [
    sf.annulus(2, 2, corners) for corners in
    ((sf.NEG, sf.NEG), (sf.NEG, sf.POS), (sf.POS, sf.NEG), (sf.POS, sf.POS))
] + [sf.punctured_torus(m) for m in (2, 4, 6)] + [
    sf.disjoint_union(sf.disk(4), sf.annulus(2, 2)),
    sf.disjoint_union(sf.annulus(2, 2, (sf.POS, sf.NEG)), sf.punctured_torus(2)),
]
TOPOLOGY_DIGEST = "61c0b868485deecc6b14bb2e01a4a2a8e2140e22e71232d46b8903dd55232bd7"


def _glue_record(info):
    return (info.target, info.seam_pair, info.seam_marks,
            sorted(info.mark_map.items()), sorted(info.token_map.items()))


def test_surface_topology_digest():
    # Locks every arc attachment, every cut of the presets and of the
    # attachment targets with its reglued target, and the validation
    # fields and expected rank of every surface met on the way.
    digest = hashlib.sha256()
    seen = []
    targets = []
    for n in range(2, 6):
        for j in range(2 * n):
            info = glue_surfaces(attach_arc_datum(n, j))
            digest.update(repr(_glue_record(info)).encode())
            targets.append(info.target)
    seen += targets
    for surface in TOPOLOGY_PRESETS + targets:
        seen.append(surface)
        for pair_id in range(surface.num_pairs):
            try:
                cut = cut_surface(surface, pair_id)
            except GluingError as exc:
                digest.update(repr(("error", pair_id, str(exc))).encode())
                continue
            reglued = glue_surfaces(cut.reglue).target
            digest.update(repr((pair_id, cut.cut_surface, cut.reglue, reglued)).encode())
            seen += [cut.cut_surface, reglued]
    for surface in seen:
        info = sf.validate_surface(surface)
        digest.update(repr((info.euler, info.marks_per_circle, info.components,
                            sum(expected_graded_ranks(surface).values()))).encode())
    assert digest.hexdigest() == TOPOLOGY_DIGEST
