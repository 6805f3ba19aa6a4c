"""What a fresh ``import privsvm`` loads."""

import importlib
import os
import pkgutil
import subprocess
import sys

import privsvm


def test_import_loads_no_scipy_optimize():
    # scipy.optimize is most of a fresh import's time, and only the LP path
    # of family_membership and log-mode weight learning call it
    src = os.path.dirname(os.path.dirname(privsvm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, privsvm; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_export_resolves():
    # an __all__ entry is not checked at import, only by a star import
    for info in pkgutil.iter_modules(privsvm.__path__):
        module = importlib.import_module(f"privsvm.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], info.name
