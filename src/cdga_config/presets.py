"""Built-in example algebras, loaded from the packaged JSON files.

Verified duality structures are cached per preset name, so derived data
(tensor squares, cones, truncations) are shared within a process.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ParseError
from .io import load_algebra_file
from .poincare import PDAlgebra, check_pd

PRESET_NAMES = ("point", "s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4")

_cache: dict[str, PDAlgebra] = {}


def preset_path(name: str) -> Path:
    base = name[:-5] if name.endswith(".json") else name
    if base not in PRESET_NAMES:
        raise ParseError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return Path(str(resources.files("cdga_config").joinpath("data", f"{base}.json")))


def table_preset_path() -> Path:
    return Path(str(resources.files("cdga_config").joinpath("data", "s2xs3_table.json")))


def preset_pd(name: str) -> PDAlgebra:
    base = name[:-5] if name.endswith(".json") else name
    if base in _cache:
        return _cache[base]
    algebra, n, epsilon, _ = load_algebra_file(preset_path(base))
    pd = check_pd(algebra, n, epsilon)
    _cache[base] = pd
    return pd


def resolve_pd(argument: str, relative_to: Optional[Path] = None) -> PDAlgebra:
    """A file path if one exists on disk, otherwise a preset name.

    Files are verified on every load; presets are verified once and cached.
    """
    candidates = [Path(argument)]
    if relative_to is not None:
        candidates.append(relative_to / argument)
    for candidate in candidates:
        if candidate.is_file():
            algebra, n, epsilon, _ = load_algebra_file(candidate)
            return check_pd(algebra, n, epsilon)
    return preset_pd(argument)
