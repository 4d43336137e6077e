#!/usr/bin/env python3
"""Fail when a src/ header is reachable only from tests.

Every src/**/*.hpp must be included by some file under src/, examples/ or
bench/ other than its own .cpp; a header that only tests include marks a
module no binary, example or paper bench ever runs.  Run from the
repository root:

    python3 ci/check_dead_modules.py
"""
import pathlib
import re
import sys

# Headers allowed to have no production includer, each with its reason.
ALLOWED = {
    # The numerical-gradient reference that the layer tests compare every
    # analytic backward pass against; it has no production caller by design.
    "nn/gradcheck.hpp",
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path.cwd()
    includers: dict[str, set[pathlib.Path]] = {}
    for top in ("src", "examples", "bench"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cpp", ".hpp"):
                continue
            for target in INCLUDE.findall(path.read_text(encoding="utf-8")):
                includers.setdefault(target, set()).add(path)

    dead = []
    for header in sorted((root / "src").rglob("*.hpp")):
        name = header.relative_to(root / "src").as_posix()
        if name in ALLOWED:
            continue
        if includers.get(name, set()) - {header.with_suffix(".cpp")}:
            continue
        dead.append(name)

    for name in dead:
        print(f"dead module: src/{name} has no includer in src/, examples/ or "
              "bench/ other than its own .cpp", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
