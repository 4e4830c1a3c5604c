import importlib
import pkgutil

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names): a list that collects (name, args) of every later call to the named fibtree functions.

    Each fibtree module that binds one of them gets the counting wrapper, its home module
    included, so a call counts wherever it is made: u_inverse calls u in wythoff, and
    `goldring._phi_log` calls `_sign` and `_fib_signed` in goldring."""
    import fibtree

    modules = [fibtree] + [
        importlib.import_module(f"fibtree.{m.name}") for m in pkgutil.iter_modules(fibtree.__path__) if m.name != "__main__"
    ]

    def count(*names: str) -> list[tuple[str, tuple]]:
        calls = []
        for name in names:
            real = next(getattr(module, name) for module in modules if hasattr(module, name))

            def counted(*args, name=name, real=real):
                calls.append((name, args))
                return real(*args)

            for module in modules:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return count
