"""Built-in subgroup generator tables, catalog file parsing, and the
known torsion structures by number-field degree.

Catalog lines have the form `label level [[a,b,c,d],...]`: a label
token, an integer level, then a JSON list of 4-entry generator rows.
Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .groups import GenGroup, closure, standard_subgroup

# Generator tables for the groups used throughout: the two index-8 Borel
# subgroups of GL2(F3) and their diagonal companion, the unipotent line
# stabilizer mod 2, and three level-9 groups whose index-6 torsion orbits
# drive the main computation. 3Cs.1.1 is the diagonal group fixing (1,0).
NAMED_GROUP_GENERATORS: dict[str, tuple[int, tuple[tuple, ...]]] = {
    "2B": (2, ((1, 1, 0, 1),)),
    "3B.1.1": (3, ((1, 0, 0, 2), (1, 1, 0, 1))),
    "3B.1.2": (3, ((2, 0, 0, 1), (1, 1, 0, 1))),
    "3Cs.1.1": (3, ((1, 0, 0, 2),)),
    "9B0-9a": (9, ((1, 1, 0, 1), (2, 0, 0, 5), (1, 0, 0, 2))),
    "9J0-9b": (9, ((1, 3, 0, 1), (2, 2, 3, 8), (2, 1, 0, 1))),
    "9H0-9b": (9, ((1, 0, 3, 1), (5, 3, 0, 2), (2, 0, 1, 1))),
}

# The level-9 groups with built-in generators (others are user-supplied
# through catalog files).
EMBEDDED_LEVEL9 = ("9B0-9a", "9H0-9b", "9J0-9b")


def named_group(label: str) -> GenGroup:
    """Closure of a built-in generator table entry."""
    if label not in NAMED_GROUP_GENERATORS:
        raise ValueError(f"unknown group label {label!r}; expected one of "
                         f"{', '.join(sorted(NAMED_GROUP_GENERATORS))}")
    level, gens = NAMED_GROUP_GENERATORS[label]
    return closure(gens, level, label)


def identify_candidates(ell: int) -> list[GenGroup]:
    """Default candidate images for identify_image at a given level."""
    if ell == 2:
        return [standard_subgroup("full", 2), named_group("2B")]
    if ell == 3:
        return [standard_subgroup("full", 3), named_group("3B.1.1"),
                named_group("3B.1.2"), named_group("3Cs.1.1")]
    raise ValueError(f"no built-in candidates at level {ell}")


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog line: a labeled generator list at a level."""

    label: str
    level: int
    generators: tuple[tuple, ...]

    def group(self) -> GenGroup:
        return closure(self.generators, self.level, self.label)


class CatalogError(ValueError):
    pass


def parse_generator_rows(text: str, level: int) -> tuple[tuple, ...]:
    """The rows of text, a JSON list of 4-entry int rows (not bool) such as
    [[1,1,0,1]], checked as generators at this level; else ValueError."""
    if level < 2:
        raise CatalogError(f"level must be >= 2, got {level}")
    try:
        gens = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise CatalogError(f"bad generator list: {e}")
    if not (isinstance(gens, list) and gens and all(
            isinstance(g, list) and len(g) == 4
            and all(type(v) is int for v in g) for g in gens)):
        raise CatalogError(
            "generators must be a nonempty list of 4-entry integer rows")
    rows = tuple(map(tuple, gens))
    GenGroup.from_generators(rows, level)
    return rows


def parse_catalog(text: str) -> list[CatalogEntry]:
    """Parse catalog text, validating labels, levels and generators."""
    entries = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise CatalogError(
                f"line {lineno}: expected 'label level [[a,b,c,d],...]'")
        label, level_s, gens_s = parts
        if label in seen:
            raise CatalogError(f"line {lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            level = int(level_s)
        except ValueError:
            raise CatalogError(
                f"line {lineno}: level {level_s!r} is not an integer")
        try:
            rows = parse_generator_rows(gens_s, level)
        except ValueError as e:
            raise CatalogError(f"line {lineno}: {e}")
        entries.append(CatalogEntry(label, level, rows))
    return entries


def serialize_catalog(entries) -> str:
    """Render entries back to the line format parse_catalog reads."""
    lines = []
    for e in entries:
        gens = json.dumps([list(g) for g in e.generators],
                          separators=(",", ":"))
        lines.append(f"{e.label} {e.level} {gens}")
    return "\n".join(lines) + "\n"


def _cyclic(*ms):
    return frozenset((m,) for m in ms)


def _pairs(a, ms):
    return frozenset((a, a * m) for m in ms)


# Torsion structures of elliptic curves over number fields, by degree:
# complete classified lists for degrees 1, 2, 3, and the known-possible
# list for degree 6. Structures are (m,) or (a, b) with a | b.
TORSION_BY_DEGREE: dict[int, frozenset] = {
    1: _cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12) | _pairs(2, (1, 2, 3, 4)),
    2: (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16)
        | _pairs(2, (1, 2, 3, 4, 5, 6)) | _pairs(3, (1, 2)) | _pairs(4, (1,))),
    3: (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 18, 21)
        | _pairs(2, (1, 2, 3, 4, 7))),
    6: (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18,
                21, 30)
        | _pairs(2, (1, 2, 3, 4, 5, 6, 7, 9)) | _pairs(3, (1, 2, 3, 4))
        | _pairs(4, (1, 3)) | _pairs(6, (1,))),
}


def is_admissible_torsion(structure, degree: int) -> bool:
    """Whether the group C_m (as (m,)) or C_a x C_b (as (a, b), a | b)
    occurs as torsion of some elliptic curve over Q in a field of the
    given degree. Degree 6 uses the known-possible list, on which
    (3, 18) does not appear."""
    if degree not in TORSION_BY_DEGREE:
        raise ValueError(f"no table for degree {degree}; have "
                         f"{sorted(TORSION_BY_DEGREE)}")
    s = tuple(int(v) for v in structure)
    if len(s) == 1:
        if s[0] < 1:
            raise ValueError(f"bad structure {structure!r}")
    elif len(s) == 2:
        a, b = s
        if a < 1 or b % a != 0:
            raise ValueError(f"structure {structure!r} must have a | b")
        if a == 1:
            s = (b,)
    else:
        raise ValueError(f"bad structure {structure!r}")
    return s in TORSION_BY_DEGREE[degree]
