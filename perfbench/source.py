"""Locate the engine's source tree in the checkout and put it on sys.path.

The benchmark always measures the `nearcrash` package under `src/` of the
checkout it sits in, never an installed copy. Without that tree there is
nothing to measure, so the process exits with status 2 and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> Path:
    """Return the `src` directory after putting it first on sys.path."""
    if not (SRC / "nearcrash" / "__init__.py").is_file():
        print(f"perfbench: no nearcrash source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import nearcrash

    if Path(nearcrash.__file__).resolve().parent != SRC / "nearcrash":
        print(f"perfbench: imported nearcrash from {nearcrash.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return SRC
