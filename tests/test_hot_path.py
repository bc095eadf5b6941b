"""The per-frame and training steps keep off numpy's method-wrapper
reductions: ``a.all()``, ``a.sum()`` and the like run through Python-level
wrappers in ``numpy._core._methods`` before the ufunc does the work. The
hot functions count (``np.count_nonzero``) or call the ufunc
(``np.add.reduce``) instead, with the same results."""

import ast
import inspect

import pytest

import oap.engine
import oap.head
import oap.memory
import oap.pseudolabel

WRAPPED_METHODS = {"all", "any", "sum", "mean", "min", "max"}

# The functions a frame or a fine-tune event runs, by module. Error-path
# helpers such as ``head._first_nonfinite`` are not on the list.
HOT_FUNCTIONS = {
    oap.head: ["_as_floats", "forward", "_grad_kernel", "apply_update"],
    oap.engine: ["process_frame", "_finetune", "_fold", "score_block"],
    oap.memory: ["insert", "evict_old", "refresh_working_labels", "sample_batch"],
    oap.pseudolabel: ["assign_pseudo_label", "smooth_labels"],
}


def function_defs(module) -> dict[str, ast.FunctionDef]:
    """Every function and method defined in ``module``, by name."""
    tree = ast.parse(inspect.getsource(module))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def wrapped_calls(node: ast.AST) -> list[str]:
    """``line: .name()`` for each call of a wrapped method inside ``node``."""
    return [
        f"{call.lineno}: .{call.func.attr}()"
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in WRAPPED_METHODS
    ]


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in HOT_FUNCTIONS.items() for name in names
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_hot_function_calls_no_wrapped_reduction(module, name):
    defs = function_defs(module)
    assert name in defs, f"{module.__name__}.{name} is gone; update HOT_FUNCTIONS"
    assert wrapped_calls(defs[name]) == []


def test_the_guard_sees_a_wrapped_call():
    tree = ast.parse("def f(a, np):\n    return np.isfinite(a).all() and a.sum(axis=0)\n")
    assert wrapped_calls(tree) == ["2: .all()", "2: .sum()"]
