"""Tree-walking (iterative) evaluator — the reference semantics.

Evaluates the AST directly over DOM nodes.  For-loops iterate in Python,
so a StandOff step nested in a loop is executed once per iteration — the
cost model of the paper's UDF and Basic-MergeJoin implementations
(which join strategy is used per call is the context's
``strategy`` setting).  The loop-lifted execution model lives in
:mod:`repro.xquery.bulk`.
"""

from __future__ import annotations

from repro.errors import (
    UnsupportedFeatureError,
    XQueryDynamicError,
    XQueryStaticError,
    XQueryTypeError,
)
from repro.xmldb.dom import (
    Attr,
    Document,
    Element,
    Node,
    Text,
    document_order,
    renumber_fragment,
)
from repro.exec.cancel import check_cancelled
from repro.xquery import ast
from repro.xquery.axes import AXIS_FUNCTIONS, REVERSE_AXES, matches_test
from repro.xquery.context import DynamicContext, Focus, Sequence
from repro.xquery.functions import lookup_builtin
from repro.xquery.standoff import standoff_axis_step
from repro.xquery.values import (
    arithmetic,
    atomic_to_string,
    atomize,
    atomize_single,
    effective_boolean_value,
    general_compare,
    is_node,
    to_number,
    value_compare,
)


def evaluate(expr: ast.Expr, ctx: DynamicContext) -> Sequence:
    """Evaluate an expression to an item sequence."""
    method = _DISPATCH.get(type(expr))
    if method is None:
        raise UnsupportedFeatureError(
            f"no evaluation rule for {type(expr).__name__}")
    return method(expr, ctx)


def evaluate_module(module: ast.Module, ctx: DynamicContext) -> Sequence:
    """Evaluate prolog variable declarations, then the body."""
    for decl in module.prolog.variables:
        value = evaluate(decl.value, ctx)
        ctx.globals[decl.name] = value
        ctx.variables[decl.name] = value
    return evaluate(module.body, ctx)


# ----------------------------------------------------------------------
# simple expressions
# ----------------------------------------------------------------------

def _eval_literal(expr: ast.Literal, ctx) -> Sequence:
    return [expr.value]


def _eval_empty(expr: ast.EmptySequence, ctx) -> Sequence:
    return []


def _eval_varref(expr: ast.VarRef, ctx: DynamicContext) -> Sequence:
    return list(ctx.lookup(expr.name))


def _eval_context_item(expr: ast.ContextItem, ctx) -> Sequence:
    return [ctx.require_focus().item]


def _eval_sequence(expr: ast.Sequence, ctx) -> Sequence:
    out: Sequence = []
    for item_expr in expr.items:
        out.extend(evaluate(item_expr, ctx))
    return out


def _eval_unary(expr: ast.UnaryOp, ctx) -> Sequence:
    value = atomize_single(evaluate(expr.operand, ctx), "unary operand")
    if value is None:
        return []
    number = to_number(value)
    if isinstance(value, int) and not isinstance(value, bool):
        number = int(value)
    return [-number if expr.op == "-" else +number]


def _eval_range(expr: ast.RangeExpr, ctx) -> Sequence:
    lo = atomize_single(evaluate(expr.lo, ctx), "range start")
    hi = atomize_single(evaluate(expr.hi, ctx), "range end")
    if lo is None or hi is None:
        return []
    return list(range(int(to_number(lo)), int(to_number(hi)) + 1))


def _eval_if(expr: ast.IfExpr, ctx) -> Sequence:
    if effective_boolean_value(evaluate(expr.condition, ctx)):
        return evaluate(expr.then, ctx)
    return evaluate(expr.orelse, ctx)


def _eval_quantified(expr: ast.Quantified, ctx: DynamicContext) -> Sequence:
    binding = evaluate(expr.binding, ctx)
    scope = ctx.child_scope()
    results = []
    for item in binding:
        scope.variables[expr.var] = [item]
        results.append(effective_boolean_value(
            evaluate(expr.satisfies, scope)))
        if expr.quantifier == "some" and results[-1]:
            return [True]
        if expr.quantifier == "every" and not results[-1]:
            return [False]
    return [expr.quantifier == "every"]


# ----------------------------------------------------------------------
# binary operators
# ----------------------------------------------------------------------

_GENERAL_OPS = {"=", "!=", "<", "<=", ">", ">="}
_VALUE_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
_ARITH_OPS = {"+", "-", "*", "div", "idiv", "mod"}
_NODE_OPS = {"is", "<<", ">>"}


def _eval_binary(expr: ast.BinaryOp, ctx: DynamicContext) -> Sequence:
    op = expr.op
    if op == "and":
        if not effective_boolean_value(evaluate(expr.left, ctx)):
            return [False]
        return [effective_boolean_value(evaluate(expr.right, ctx))]
    if op == "or":
        if effective_boolean_value(evaluate(expr.left, ctx)):
            return [True]
        return [effective_boolean_value(evaluate(expr.right, ctx))]

    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if op in _GENERAL_OPS:
        return [general_compare(left, right, op)]
    if op in _VALUE_OPS:
        return value_compare(left, right, op)
    if op in _ARITH_OPS:
        return arithmetic(left, right, op)
    if op in ("union", "intersect", "except"):
        return _node_set_op(op, left, right)
    if op in _NODE_OPS:
        return _node_compare(op, left, right)
    raise UnsupportedFeatureError(f"operator {op!r} not supported")


def _node_compare(op: str, left: Sequence, right: Sequence) -> Sequence:
    """``is`` (identity) and ``<<``/``>>`` (document order) over
    single-node operands; empty when either operand is empty."""
    what = "'is'" if op == "is" else op
    a = _single_node_or_none(left, what)
    b = _single_node_or_none(right, what)
    if a is None or b is None:
        return []
    if op == "is":
        return [a is b]
    before = a.sort_key() < b.sort_key()
    return [before if op == "<<" else not before]


def _single_node_or_none(seq: Sequence, what: str) -> Node | None:
    if not seq:
        return None
    if len(seq) != 1 or not is_node(seq[0]):
        raise XQueryTypeError(f"{what} requires single node operands")
    return seq[0]


def _node_set_op(op: str, left: Sequence, right: Sequence) -> Sequence:
    for item in (*left, *right):
        if not is_node(item):
            raise XQueryTypeError(f"'{op}' requires node sequences")
    if op == "union":
        return document_order([*left, *right])
    right_ids = {id(n) for n in right}
    if op == "intersect":
        return document_order([n for n in left if id(n) in right_ids])
    return document_order([n for n in left if id(n) not in right_ids])


# ----------------------------------------------------------------------
# FLWOR
# ----------------------------------------------------------------------

def _eval_flwor(expr: ast.FLWOR, ctx: DynamicContext) -> Sequence:
    tuples: list[DynamicContext] = []

    def generate(clause_idx: int, scope: DynamicContext) -> None:
        if clause_idx == len(expr.clauses):
            tuples.append(scope)
            return
        clause = expr.clauses[clause_idx]
        if isinstance(clause, ast.LetClause):
            inner = scope.child_scope()
            inner.variables[clause.var] = evaluate(clause.value, scope)
            generate(clause_idx + 1, inner)
        else:
            binding = evaluate(clause.binding, scope)
            for position, item in enumerate(binding, start=1):
                # Cancellation checkpoint: the tuple stream of nested
                # for clauses grows as the product of their bindings.
                check_cancelled()
                inner = scope.child_scope()
                inner.variables[clause.var] = [item]
                if clause.position_var:
                    inner.variables[clause.position_var] = [position]
                generate(clause_idx + 1, inner)

    generate(0, ctx)

    if expr.where is not None:
        tuples = [scope for scope in tuples
                  if effective_boolean_value(evaluate(expr.where, scope))]

    if expr.order_by:
        def order_key(scope: DynamicContext):
            key = []
            for spec in expr.order_by:
                value = atomize_single(evaluate(spec.key, scope),
                                       "order by key")
                # (emptiness sorts first; descending negates via wrapper)
                key.append(_OrderKey(value, spec.descending))
            return key
        tuples = sorted(tuples, key=order_key)

    out: Sequence = []
    for scope in tuples:
        # Cancellation checkpoint: per-tuple return evaluation is the
        # other unbounded interpreter loop (see _filter_by_predicate).
        check_cancelled()
        out.extend(evaluate(expr.return_expr, scope))
    return out


class _OrderKey:
    """Comparable wrapper implementing empty-first and descending order."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __eq__(self, other: object) -> bool:
        # Needed so multi-key sorts fall through to the next key on ties.
        if not isinstance(other, _OrderKey):
            return NotImplemented
        a, b = self.value, other.value
        if isinstance(a, str) != isinstance(b, str):
            a, b = atomic_to_string(a), atomic_to_string(b)
        return a == b

    def __hash__(self):
        raise TypeError("_OrderKey is unhashable")

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            if a is None and b is None:
                return False
            less = a is None
            return less != self.descending
        if isinstance(a, str) != isinstance(b, str):
            a, b = atomic_to_string(a), atomic_to_string(b)
        if a == b:
            return False
        return (a < b) != self.descending


# ----------------------------------------------------------------------
# functions
# ----------------------------------------------------------------------

def _eval_call(expr: ast.FunctionCall, ctx: DynamicContext) -> Sequence:
    args = [evaluate(arg, ctx) for arg in expr.args]
    local = expr.name.rpartition(":")[2]
    decl = ctx.static.functions.get((local, len(args)))
    if decl is not None:
        scope = ctx.function_scope(dict(zip(decl.params, args)))
        return evaluate(decl.body, scope)
    builtin = lookup_builtin(expr.name, len(args))
    if builtin is not None:
        return builtin(ctx, args)
    raise XQueryStaticError(
        f"unknown function {expr.name}#{len(args)}", code="err:XPST0017")


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------

def _eval_path(expr: ast.PathExpr, ctx: DynamicContext) -> Sequence:
    if expr.absolute:
        focus = ctx.require_focus()
        if not is_node(focus.item):
            raise XQueryTypeError("'/' requires a node context item")
        current: Sequence = [focus.item.root]
    else:
        current = None  # first step supplies the sequence
    for i, step in enumerate(expr.steps):
        if current is None:
            current = _eval_step(step, ctx, None)
        else:
            current = _eval_step(step, ctx, current)
    if current is None:          # bare '/'
        return [ctx.require_focus().item.root]
    return current


def _eval_step(step, ctx: DynamicContext,
               context_seq: Sequence | None) -> Sequence:
    if isinstance(step, ast.AxisStep):
        if context_seq is None:
            focus = ctx.require_focus()
            context_seq = [focus.item]
        for item in context_seq:
            if not is_node(item):
                raise XQueryTypeError(
                    "path steps require node context items")
        if step.is_standoff:
            result = standoff_axis_step(ctx, step.axis, context_seq,
                                        step.test)
            return _apply_predicates_sequence(result, step.predicates, ctx)
        return _eval_standard_axis(step, ctx, context_seq)
    # FilterExpr: evaluate base for each context item (or once)
    assert isinstance(step, ast.FilterExpr)
    if context_seq is None:
        base = evaluate(step.base, ctx)
        return _apply_predicates_sequence(base, step.predicates, ctx)
    out: Sequence = []
    scope = ctx.child_scope()
    size = len(context_seq)
    all_nodes = True
    for position, item in enumerate(context_seq, start=1):
        scope.focus = Focus(item, position, size)
        value = evaluate(step.base, scope)
        value = _apply_predicates_sequence(value, step.predicates, scope)
        for produced in value:
            if not isinstance(produced, Node):
                all_nodes = False
            out.append(produced)
    if all_nodes and out and any(isinstance(i, Node) for i in out):
        return document_order(out)
    if not all_nodes and any(isinstance(i, Node) for i in out):
        raise XQueryTypeError(
            "path step mixes nodes and atomic values")
    return out


def _eval_standard_axis(step: ast.AxisStep, ctx: DynamicContext,
                        context_seq: Sequence) -> Sequence:
    axis_fn = AXIS_FUNCTIONS[step.axis]
    reverse = step.axis in REVERSE_AXES
    collected: list[Node] = []
    scope = ctx.child_scope()
    for node in context_seq:
        matched = [candidate for candidate in axis_fn(node)
                   if matches_test(candidate, step.test, step.axis)]
        if reverse:
            matched.sort(key=Node.sort_key, reverse=True)
        for predicate in step.predicates:
            matched = _filter_by_predicate(matched, predicate, scope)
        collected.extend(matched)
    return document_order(collected)


def _filter_by_predicate(items: list, predicate: ast.Expr,
                         ctx: DynamicContext) -> list:
    out = []
    size = len(items)
    scope = ctx.child_scope()
    for position, item in enumerate(items, start=1):
        # Cancellation checkpoint: per-item predicate loops are where
        # a non-batched evaluation spends unbounded time between
        # kernel calls, so a served query's timeout must be able to
        # fire here (cheap: one thread-local read per item).
        check_cancelled()
        scope.focus = Focus(item, position, size)
        value = evaluate(predicate, scope)
        if _predicate_truth(value, position):
            out.append(item)
    return out


def _predicate_truth(value: Sequence, position: int) -> bool:
    """Numeric predicates test position; everything else is EBV."""
    if len(value) == 1 and isinstance(value[0], (int, float)) \
            and not isinstance(value[0], bool):
        return value[0] == position
    return effective_boolean_value(value)


def _apply_predicates_sequence(items: Sequence, predicates: list,
                               ctx: DynamicContext) -> Sequence:
    for predicate in predicates:
        items = _filter_by_predicate(list(items), predicate, ctx)
    return items


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def _eval_element_ctor(expr: ast.ElementConstructor,
                       ctx: DynamicContext) -> Sequence:
    element = Element(expr.name)
    for attr_ctor in expr.attributes:
        element.set_attribute(attr_ctor.name,
                              _eval_ctor_parts(attr_ctor.parts, ctx))
    _fill_content(element, expr.content, ctx)
    _renumber_fragment(element)
    return [element]


def _eval_text_ctor(expr: ast.TextConstructor, ctx) -> Sequence:
    return [Text(_eval_ctor_parts(expr.parts, ctx))]


def _eval_ctor_parts(parts: list, ctx: DynamicContext) -> str:
    chunks: list[str] = []
    for part in parts:
        if isinstance(part, str):
            chunks.append(part)
        else:
            values = atomize(evaluate(part, ctx))
            chunks.append(" ".join(atomic_to_string(v) for v in values))
    return "".join(chunks)


def _fill_content(element: Element, content: list,
                  ctx: DynamicContext) -> None:
    """Build constructor content: literal text, nested constructors and
    enclosed expressions (nodes are deep-copied, atomics become text
    separated by spaces)."""
    for part in content:
        if isinstance(part, str):
            if part.strip():
                element.append_text(part)
            continue
        if isinstance(part, ast.ElementConstructor):
            (child,) = _eval_element_ctor(part, ctx)
            element.append(child)
            continue
        values = evaluate(part, ctx)
        pending_atomic: list[str] = []
        for value in values:
            if isinstance(value, Node):
                if pending_atomic:
                    element.append_text(" ".join(pending_atomic))
                    pending_atomic = []
                element.append(_copy_node(value))
            else:
                pending_atomic.append(atomic_to_string(value))
        if pending_atomic:
            element.append_text(" ".join(pending_atomic))


def _copy_node(node: Node) -> Node:
    """Deep copy a node for insertion into constructed content."""
    if isinstance(node, Document):
        copies = [_copy_node(child) for child in node.children]
        wrapper = Element("documents")  # should not happen in practice
        for child in copies:
            wrapper.append(child)
        return wrapper
    if isinstance(node, Element):
        clone = Element(node.tag)
        for attr in node.attributes:
            clone.set_attribute(attr.name, attr.value)
        for child in node.children:
            clone.append(_copy_node(child))
        return clone
    if isinstance(node, Attr):
        return Text(node.value)
    if isinstance(node, Text):
        return Text(node.text)
    from repro.xmldb.dom import Comment, ProcessingInstruction

    if isinstance(node, Comment):
        return Comment(node.text)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    raise XQueryTypeError(f"cannot copy {node.kind_name} node")


def _renumber_fragment(root: Element) -> None:
    """Assign local pre ranks to a constructed fragment (the shared
    orphan-subtree numbering, also used by shred-on-demand)."""
    renumber_fragment(root)


_DISPATCH = {
    ast.Literal: _eval_literal,
    ast.EmptySequence: _eval_empty,
    ast.VarRef: _eval_varref,
    ast.ContextItem: _eval_context_item,
    ast.Sequence: _eval_sequence,
    ast.UnaryOp: _eval_unary,
    ast.RangeExpr: _eval_range,
    ast.IfExpr: _eval_if,
    ast.Quantified: _eval_quantified,
    ast.BinaryOp: _eval_binary,
    ast.FLWOR: _eval_flwor,
    ast.FunctionCall: _eval_call,
    ast.PathExpr: _eval_path,
    ast.AxisStep: None,      # only valid inside PathExpr; see below
    ast.FilterExpr: None,
    ast.ElementConstructor: _eval_element_ctor,
    ast.TextConstructor: _eval_text_ctor,
}

# Standalone steps (a bare name test used as an expression) evaluate as a
# one-step relative path.
_DISPATCH[ast.AxisStep] = lambda expr, ctx: _eval_step(expr, ctx, None)
_DISPATCH[ast.FilterExpr] = lambda expr, ctx: _eval_step(expr, ctx, None)
