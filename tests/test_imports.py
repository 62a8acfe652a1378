"""Import footprint: the engine imports and runs without loading SciPy, and
`config` sits below the modules that read its sections, reads every JSON file and
writes every record."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nearcrash

# a five-vehicle stream, as in acceptance criterion 5, so frames reach the
# association path with at least two tracks and two detections
CHILD = """
import sys
from nearcrash import ActorSpec, CameraSpec, ScenarioSpec, build_config, generate_detections, run
from nearcrash.tracker import solve_assignment

camera = CameraSpec(focal_px=1000, frame_width=4000, frame_height=3000, fps=24)
actors = tuple(
    ActorSpec(
        kind="vehicle", real_height=1.5, real_width=1.8, init_longitudinal=40.0,
        init_lateral=-12.0 + 6.0 * i, vel_longitudinal=5.0, collision_half_width=1.2,
    )
    for i in range(5)
)
frames = generate_detections(ScenarioSpec(camera=camera, actors=actors, duration=3.0))
assert sum(len(frame.detections) >= 2 for frame in frames) >= 60
run(frames, build_config({"camera": {"frame_width": 4000, "frame_height": 3000, "fps": 24}}))
assert solve_assignment([[0.5, 0.5], [0.5, 0.0]]) == [(0, 1), (1, 0)]
print(" ".join(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_engine_run_loads_no_scipy():
    src = str(Path(nearcrash.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def _package_imports(tree: ast.Module) -> set:
    """The package modules a module imports, by name below `nearcrash`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "nearcrash"):
            # from .x import y, from . import x, from nearcrash import x
            relative_module = node.level and node.module
            names.update([node.module] if relative_module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("nearcrash."):
            names.add(node.module.removeprefix("nearcrash."))
        elif isinstance(node, ast.Import):
            names.update(
                a.name.removeprefix("nearcrash.") for a in node.names
                if a.name.startswith("nearcrash.")
            )
    return names


def test_config_imports_no_package_module_and_readers_need_no_type_checking():
    package = Path(nearcrash.__file__).resolve().parent
    config = ast.parse((package / "config.py").read_text(encoding="utf-8"))
    assert _package_imports(config) == set()
    for name in ("rules.py", "ttc.py"):
        assert "TYPE_CHECKING" not in (package / name).read_text(encoding="utf-8"), name


def test_only_config_writes_records():
    package = Path(nearcrash.__file__).resolve().parent
    writers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "to_json")
    }
    assert writers == {"config.py"}


def test_only_config_reads_json_files():
    package = Path(nearcrash.__file__).resolve().parent
    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "load"
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    }
    assert readers == {"config.py"}
