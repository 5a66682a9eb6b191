"""Compile-time AST rewrites, applied once per plan by
:meth:`repro.xquery.engine.Database.compile`.

Every strategy, the serve admission classifier and ``explain`` see the
rewritten AST; the parser itself stays a pure text-to-AST function.

The one rewrite is the standard XPath normalization of the ``//``
abbreviation::

    descendant-or-self::node()/child::x[p]   ==>   descendant::x[p]

``//x`` otherwise expands into every node of the document followed by
a per-node child step; the rewritten form is a single descendant step,
which the loop-lifted evaluator answers with one Staircase Join
(Grust, van Keulen, Teubner, VLDB 2003).  The two forms select the same
nodes, but a predicate sees a different focus: in the child step,
``position()`` and ``last()`` count among one parent's children; in the
descendant step, among all descendants of the context node.  So the
rewrite fires only when every predicate is provably non-positional —
its value can never be a number, and it mentions neither
``position()`` nor ``last()`` anywhere.  ``//x[1]``, ``//x[last()]``
and ``//x[$n]`` therefore keep their form, and so does ``//@a`` (an
attribute step, not a child step).
"""

from __future__ import annotations

from repro.xquery import ast

#: Operators whose result is a boolean (or empty), never a number.
_BOOLEAN_OPS = frozenset({
    "=", "!=", "<", "<=", ">", ">=",
    "eq", "ne", "lt", "le", "gt", "ge",
    "is", "<<", ">>",
    "and", "or",
})

#: Functions that read the predicate's focus position or size.
_FOCUS_FUNCTIONS = frozenset({"position", "last"})


def rewrite_module(module: ast.Module) -> None:
    """Rewrite *module* in place: the body, prolog variables and
    function bodies alike."""
    for node in ast.walk(module):
        if isinstance(node, ast.PathExpr):
            _fuse_descendant_steps(node.steps)


def _fuse_descendant_steps(steps: list) -> None:
    i = 0
    while i + 1 < len(steps):
        dos, step = steps[i], steps[i + 1]
        if _is_bare_descendant_or_self(dos) \
                and isinstance(step, ast.AxisStep) \
                and step.axis == "child" \
                and all(map(non_positional, step.predicates)):
            steps[i:i + 2] = [ast.AxisStep("descendant", step.test,
                                           step.predicates, pos=step.pos)]
        i += 1


def _is_bare_descendant_or_self(step) -> bool:
    return (isinstance(step, ast.AxisStep)
            and step.axis == "descendant-or-self"
            and step.test.kind == "node"
            and not step.predicates)


def non_positional(predicate: ast.Expr) -> bool:
    """True when *predicate* provably filters by truth, not position.

    Its value must be boolean — a general, value or node comparison,
    ``and``/``or`` — or a node sequence (a path ending in an axis
    step), and it must not mention ``position()`` or ``last()``.
    """
    if isinstance(predicate, ast.BinaryOp):
        shaped = predicate.op in _BOOLEAN_OPS
    elif isinstance(predicate, ast.PathExpr):
        shaped = bool(predicate.steps) \
            and isinstance(predicate.steps[-1], ast.AxisStep)
    else:
        shaped = isinstance(predicate, ast.AxisStep)
    return shaped and not any(
        isinstance(node, ast.FunctionCall)
        and node.name.rpartition(":")[2] in _FOCUS_FUNCTIONS
        for node in ast.walk(predicate))
