"""Built-in example algebras, loaded from the packaged JSON files.

What is cached per process, in `_cache`: the verified duality structure of
each preset, by name, and the packaged generator table document, parsed
once, under a key that no preset name reaches. Data derived from a
preset's algebra hang off it and are shared with it: the tensor square,
the cone, its truncation with the generic model C(Xi) (every twist at
once, `twisted.TruncatedCone`) and the equivalence ideal, the one owner
of the system matrix, the projected generators and C(Xi)/I
(`twisted.EquivalenceIdeal`). The table
document keeps the two family verdicts of `sullivan.classify_example`,
which depend on the document alone, and its table over the parameters
with that table's `check_table` report (`io.TableDocument.symbolic` and
`.report`): each table at given values that is an exact instance of it
takes that report. Nothing that depends on a value is cached: each
twist, each C(xi) and each table at given parameter values is built
afresh (`classify_example` builds each value's C(q, 0) once per call,
and a table on it only for a pair that takes the numeric solve).
`check_cdga` and the check of the map from the tensor square run once
per truncation, on C(Xi); each C(xi), the document's
C(xi(q, r)) over its parameters included, is built by `twisted.build_cxi`
and gets the entry checks of `DGAlgebra.with_square` and an exact check
that it is C(Xi) at xi (`twisted.TruncatedCone.instance`), or the full
checks of its own when it is not.
`_cache.clear()` drops all of it together.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .errors import ParseError
from .io import TableDocument, load_algebra_file, parse_table_file
from .poincare import PDAlgebra, check_pd

PRESET_NAMES = ("point", "s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4")

# a tuple, so that no preset name (a string) looks the document up
_TABLE_KEY = ("table", "s2xs3_table")

_cache: dict[Union[str, tuple[str, str]], Union[PDAlgebra, TableDocument]] = {}

# the packaged data directory, resolved once at import
_DATA = Path(str(resources.files("cdga_config").joinpath("data")))


def _preset_base(name: str) -> str:
    return name[:-5] if name.endswith(".json") else name


def preset_path(name: str) -> Path:
    base = _preset_base(name)
    if base not in PRESET_NAMES:
        raise ParseError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _DATA / f"{base}.json"


def table_preset_path() -> Path:
    return _DATA / "s2xs3_table.json"


def _resolve_path(argument: str, relative_to: Optional[Path] = None) -> Path:
    """The file that `argument` names, or else the packaged file of the
    preset it names.

    An existing file wins over a preset of the same name. A path that names
    no file is a ParseError: an argument with a path separator, or one that
    exists but is not a file (a directory, say) and is no preset name. Any
    other bare name is looked up by `preset_path`, which reports an unknown
    preset. With `relative_to` the path is read against it.
    """
    candidate = Path(argument) if relative_to is None else relative_to / argument
    if candidate.is_file():
        return candidate
    bare = not any(sep and sep in argument for sep in (os.sep, os.altsep))
    if not (bare and _preset_base(argument) in PRESET_NAMES):
        shown = argument if relative_to is None else str(candidate)
        if argument and candidate.exists():
            raise ParseError(f"not a file: {shown!r}")
        if not bare:
            raise ParseError(f"no such file: {shown!r}")
    return preset_path(argument)


def preset_table() -> TableDocument:
    """The packaged table document `s2xs3_table.json`, parsed once per
    process; it refers to the cached s2xs3 preset."""
    document = _cache.get(_TABLE_KEY)
    if document is None:
        document = _cache[_TABLE_KEY] = parse_table_file(table_preset_path())
    return document


def preset_pd(name: str) -> PDAlgebra:
    base = _preset_base(name)
    if base in _cache:
        return _cache[base]
    algebra, n, epsilon, _ = load_algebra_file(preset_path(base))
    pd = check_pd(algebra, n, epsilon)
    _cache[base] = pd
    return pd


def resolve_pd(argument: str, relative_to: Optional[Path] = None) -> PDAlgebra:
    """A file path if one exists on disk, otherwise a preset name; a path
    that names no file is a ParseError (`_resolve_path`).

    Without `relative_to` (a path given to the command line) the path is
    taken as it is, so a relative one is read from the current directory.
    With it (a name given inside a document) the path is read against
    `relative_to`, the document's directory, and never against the
    current directory, so a document means the same wherever it is read
    from. Files are verified on every load; presets are verified once and
    cached.
    """
    path = _resolve_path(argument, relative_to)
    if path.parent == _DATA and path.stem in PRESET_NAMES:
        return preset_pd(path.stem)
    algebra, n, epsilon, _ = load_algebra_file(path)
    return check_pd(algebra, n, epsilon)
