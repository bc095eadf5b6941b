"""The per-frame and training steps keep off numpy's Python-level
dispatch, with the same results:

- method-wrapper reductions: ``a.all()``, ``a.sum()`` and the like run
  through Python-level wrappers in ``numpy._core._methods`` before the
  ufunc does the work. The hot functions count (``np.count_nonzero``) or
  call the ufunc (``np.add.reduce``) instead;
- products through the ``@`` operator (the matmul ufunc) or the ``np.dot``
  and ``np.matmul`` functions: ``ndarray.dot`` makes the same BLAS call with
  less dispatch;
- a call of ``FrameVerdict(...)``, whose NamedTuple ``__new__`` runs in
  Python; ``tuple.__new__(FrameVerdict, ...)`` builds the same tuple.

``head.forward_batch`` keeps ``np.matmul`` on purpose (its stacked product
gives each row the bits of ``forward``) and is not on the list."""

import ast
import inspect

import pytest

import oap.engine
import oap.head
import oap.memory
import oap.pseudolabel

WRAPPED_METHODS = {"all", "any", "sum", "mean", "min", "max"}
DISPATCHED_PRODUCTS = {"dot", "matmul"}

# The functions a frame or a fine-tune event runs, by module. Error-path
# helpers such as ``head._first_nonfinite`` are not on the list.
HOT_FUNCTIONS = {
    oap.head: ["_as_floats", "forward", "_grad_kernel", "apply_update"],
    oap.engine: ["process_frame", "_finetune", "_fold", "score_block"],
    oap.memory: ["check_frame", "first_bad_frame", "insert", "evict_old",
                 "refresh_working_labels", "sample_batch"],
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


def dispatched_products(node: ast.AST) -> list[str]:
    """``line: @`` for each ``@`` or ``@=`` inside ``node``, ``line:
    np.name()`` for each call of ``np.dot`` or ``np.matmul``, and ``line:
    FrameVerdict()`` for each call of the NamedTuple."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append(f"{sub.lineno}: @")
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (isinstance(func, ast.Attribute) and func.attr in DISPATCHED_PRODUCTS
                    and isinstance(func.value, ast.Name) and func.value.id == "np"):
                found.append(f"{sub.lineno}: np.{func.attr}()")
            elif isinstance(func, ast.Name) and func.id == "FrameVerdict":
                found.append(f"{sub.lineno}: FrameVerdict()")
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


hot_functions = pytest.mark.parametrize("module, name", [
    (module, name) for module, names in HOT_FUNCTIONS.items() for name in names
], ids=lambda v: v if isinstance(v, str) else v.__name__)


@hot_functions
def test_hot_function_calls_no_wrapped_reduction(module, name):
    defs = function_defs(module)
    assert name in defs, f"{module.__name__}.{name} is gone; update HOT_FUNCTIONS"
    assert wrapped_calls(defs[name]) == []


@hot_functions
def test_hot_function_makes_no_dispatched_product_or_verdict_call(module, name):
    defs = function_defs(module)
    assert name in defs, f"{module.__name__}.{name} is gone; update HOT_FUNCTIONS"
    assert dispatched_products(defs[name]) == []


def test_the_guard_sees_a_wrapped_call():
    tree = ast.parse("def f(a, np):\n    return np.isfinite(a).all() and a.sum(axis=0)\n")
    assert wrapped_calls(tree) == ["2: .all()", "2: .sum()"]


def test_the_guard_sees_a_dispatched_product_and_a_verdict_call():
    tree = ast.parse(
        "def f(a, b, np, v):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    d = np.dot(a, b) + np.matmul(a, b)\n"
        "    e = a.dot(b)\n"
        "    return FrameVerdict(1, 0.5, v, v, False), tuple.__new__(FrameVerdict, (c, d, e))\n"
    )
    assert dispatched_products(tree) == [
        "2: @", "3: @", "4: np.dot()", "4: np.matmul()", "6: FrameVerdict()",
    ]
