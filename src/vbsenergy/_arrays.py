"""numpy, bound lazily: its first attribute use loads it. Code tests for a
Python number before it touches np, so numbers alone never load numpy."""
import importlib.util
import math
import sys
from contextlib import nullcontext
from types import ModuleType

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


def is_number(x) -> bool:
    """Whether x is a Python int or float; numpy's float64 is a float."""
    return isinstance(x, (int, float))


def holds(ok) -> bool:
    """A comparison's outcome, or for an array whether it holds everywhere."""
    return ok if isinstance(ok, bool) else ok.all()


def where(ok, a, b):
    """a where ok holds, else b: np.where, or for a bool a choice."""
    return (a if ok else b) if isinstance(ok, bool) else np.where(ok, a, b)


def quiet():
    """np.errstate(all="ignore") once numpy has loaded; Python floats never warn."""
    return np.errstate(all="ignore") if type(np) is ModuleType else nullcontext()


def div(a, b):
    """a / b, with numpy's signed inf or nan where a Python float b is 0."""
    return a * math.copysign(math.inf, b) if isinstance(b, float) and not b else a / b
