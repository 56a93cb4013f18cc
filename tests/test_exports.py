"""Every exported name resolves: an export left pointing at deleted code
fails here rather than at a user's import."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import fusionsampler  # the package's own imports must resolve too


def test_every_module_exports_only_names_it_defines():
    modules = [info.name for info in pkgutil.iter_modules(fusionsampler.__path__)
               if info.name != "__main__"]
    assert "encoder" in modules and "sampler" in modules
    for name in modules:
        module = importlib.import_module(f"fusionsampler.{name}")
        exported = getattr(module, "__all__", None)
        assert exported, f"fusionsampler.{name} declares no __all__"
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"fusionsampler.{name}.__all__ names missing {missing}"


def test_every_name_the_tracer_patches_exists(monkeypatch):
    # perfbench/tracer.py patches (owner, attr) pairs by name, read here as
    # a module and left as it is: a refactor that drops or renames one of
    # them fails here rather than in a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for layer, owner_path, attr, _ in tracer.TARGETS:
        module_name, _, cls_name = owner_path.partition(".")
        owner = importlib.import_module(f"fusionsampler.{module_name}")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        assert callable(getattr(owner, attr, None)), (layer, owner_path, attr)
