"""Every exported name resolves: an export left pointing at deleted code
fails here rather than at a user's import."""

import importlib
import pkgutil

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
