"""pytest imports `sincoord` from the `src` of the checkout it runs in
(`pythonpath` in pyproject.toml outranks PYTHONPATH); the header names the
tree under test.  `empty_caches` is shared by the tests that need a cold
start, and `symbolic_family` and `exactly` by the sympy proofs."""

import sys

import sincoord


def pytest_report_header(config):
    return f"sincoord: {sincoord.__file__}"


def empty_caches():
    """Empty every lru_cache in the package, as a new process starts."""
    for name, module in list(sys.modules.items()):
        if name == "sincoord" or name.startswith("sincoord."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def symbolic_family(cls, **fields):
    """A family whose fields are the given sympy symbols, built past
    `__post_init__`, whose range tests compare and convert floats."""
    spec = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(spec, name, value)
    return spec


def exactly(expr, power=None):
    """`expr` with every sympy Float replaced by its exact binary value
    (`Rational(f)`: `nsimplify` would round 1.000000000001 to 1), and, given
    `power` = (q**n, Q), every power of q**n written in Q, cancelled to one
    fraction."""
    import sympy  # the callers skip without it

    expr = sympy.sympify(expr)
    expr = expr.xreplace({f: sympy.Rational(f) for f in expr.atoms(sympy.Float)})
    if power is not None:
        expr = sympy.expand_power_exp(expr).subs(*power)
    return sympy.cancel(sympy.together(expr))
