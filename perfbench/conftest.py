import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from source import require_source  # noqa: E402

require_source()
