"""The compile-time ``//x`` rewrite and the per-plan default strategy.

Every ``Database.query`` path runs the rewritten plan, so the rewrite
is checked against the ``unrewritten`` oracle (conftest): the raw parse
evaluated by the iterative evaluator.
"""

import pytest

from repro.errors import UnsupportedFeatureError
from repro.xmark import extended_query_text, generate_xmark_document
from repro.xquery import Database, ast
from repro.xquery.parser import parse
from repro.xquery.rewrite import non_positional

XML = """<r>
  <x a="v"><y/><y>t</y><x a="w"><y/><y/><y/></x></x>
  <s><x/><x a="v"><z><x a="u"/></z></x>text</s>
  <x><y><x/></y>more</x>
</r>"""

#: (query, rewritten?) for every predicate class.
SHAPES = (
    ('doc("d.xml")//x', True),
    ('doc("d.xml")//x[@a="v"]', True),
    ('doc("d.xml")//x[1]', False),
    ('doc("d.xml")//x[last()]', False),
    ('doc("d.xml")//x[position() < 3]', False),
    ('declare variable $n := 2; doc("d.xml")//x[$n]', False),
    ('doc("d.xml")//x[count(.//y) >= 2]', True),
    ('doc("d.xml")/r/x//y', True),
    ('doc("d.xml")//@a', False),
    ('doc("d.xml")//text()', True),
    ('doc("d.xml")//x/..', True),
    ('doc("d.xml")//x[y and @a]', True),
    ('doc("d.xml")//x[@a = "v" or y[2]]', True),
    ('doc("d.xml")//x[. is doc("d.xml")/r/s/x[2]]', True),
    ('doc("d.xml")//x[string(@a)]', False),
    ('doc("d.xml")//x//y', True),
    ('for $x in doc("d.xml")/r/x return count($x//y)', True),
    ('doc("d.xml")/r/descendant-or-self::node()/child::x', True),
)


@pytest.fixture
def db():
    database = Database()
    database.add_document("d.xml", XML)
    return database


def _steps(module) -> list[str]:
    return [node.axis for node in ast.walk(module)
            if isinstance(node, ast.AxisStep)]


@pytest.mark.parametrize("query,rewritten", SHAPES)
def test_shape_table(db, unrewritten, query, rewritten):
    compiled = _steps(db.compile(query).module)
    if rewritten:
        assert "descendant-or-self" not in compiled
        assert "descendant" in compiled
    else:
        assert compiled == _steps(parse(query))
    oracle = unrewritten(db, query)
    for strategy in (None, "basic", "ll"):
        got = db.query(query, strategy=strategy).serialize()
        assert got == oracle, (query, strategy)


def test_descendant_rewrite_counts_every_pair():
    db = Database()
    plan = db.compile('doc("d.xml")//a//b[c]/d//e[1]')
    # (the third step is the predicate's own child::c)
    assert _steps(plan.module) == ["descendant", "descendant", "child",
                                   "child", "descendant-or-self", "child"]


def test_rewrite_reaches_prolog_and_predicates():
    db = Database()
    plan = db.compile('declare variable $v := doc("d.xml")//a; '
                      'declare function f($x) { $x//b }; '
                      '$v[.//c]')
    assert _steps(plan.module) == ["descendant"] * 3


@pytest.mark.parametrize("text,expected", (
    ("@a", True), ("a/b", True), ("a = 1", True), ("a eq 1", True),
    (". is ..", True), ("a and b", True), ("a or b", True),
    ("1", False), ("$n", False), ("last()", False),
    ("position() = 1", False), ("a[last()]", False),
    ("count(a)", False), ("string(@a)", False), ("a/string()", False),
    ("a = fn:position()", False),
))
def test_non_positional_classes(text, expected):
    module = parse(f"x[{text}]")
    (predicate,) = module.body.predicates
    assert non_positional(predicate) is expected


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------

def test_explain_shows_the_compiled_plan(db):
    text = db.explain('doc("d")//x')
    assert "strategy: ll" in text
    assert "axis='descendant'" in text
    assert "descendant-or-self" not in text


def test_explain_keeps_positional_steps(db):
    text = db.explain('doc("d")//x[1]')
    assert "axis='descendant-or-self'" in text
    assert "axis='child'" in text


def test_explain_names_the_basic_default_and_hits_the_cache(db):
    query = 'declare function f($x) { $x }; f(doc("d.xml")//x)'
    text = db.explain(query)
    assert "strategy: basic" in text
    hits = db.plan_cache.stats()["hits"]
    db.explain(query)
    if db.plan_cache.enabled:
        assert db.plan_cache.stats()["hits"] == hits + 1


def test_explain_honours_session_options(db):
    options = {"standoff-start": "from"}
    text = db.explain('doc("d")//x', session_options=options)
    assert "strategy: ll" in text
    assert db.compile('doc("d")//x', session_options=options).static \
        is not db.compile('doc("d")//x').static


# ----------------------------------------------------------------------
# the default strategy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("query,strategy", (
    ('doc("d.xml")//x', "ll"),
    ("1 + 1", "ll"),
    ('declare function f($x) { $x }; f(1)', "basic"),
    ('doc("d.xml")/r/s/string()', "basic"),
    ('/r', "ll"),
    ('doc("d.xml")//x[./string() = "t"]', "ll"),
    ('declare variable $v := doc("d.xml")/r/count(.); $v', "basic"),
))
def test_default_strategy_per_plan(db, query, strategy):
    assert db.compile(query).strategy == strategy


def test_explicit_ll_still_raises_on_udf(db):
    query = 'declare function f($x) { $x * 2 }; f(21)'
    assert db.query(query).serialize() == "42"
    with pytest.raises(UnsupportedFeatureError):
        db.query(query, strategy="ll")


def test_updates_inherit_the_default(db):
    assert db.insert_nodes("d.xml", 'doc("d.xml")//z', "<n/>") == 1
    assert db.query('count(doc("d.xml")//n)') == [1]
    assert db.delete_nodes("d.xml", 'doc("d.xml")//n') == 1
    assert db.query('count(doc("d.xml")//n)') == [0]


def test_unknown_strategy_rejected_before_compiling(db):
    with pytest.raises(ValueError):
        db.query("1 +", strategy="fast")


# ----------------------------------------------------------------------
# loop-lifted node comparisons and conditionals
# ----------------------------------------------------------------------

NODE_COMPARISONS = (
    'for $a in doc("d.xml")//x, $b in doc("d.xml")//x '
    'return ($a is $b, $a << $b, $a >> $b)',
    'for $a in doc("d.xml")//y return $a << doc("d.xml")/r/s',
    'for $a in doc("d.xml")//x '
    'return $a/@a is $a/attribute::a',
    'for $i in (1, 2) return () is doc("d.xml")/r',
    'let $f := <f><g/></f> return ($f/g << $f, $f >> $f/g, $f is $f)',
    'doc("d.xml")//x[. >> doc("d.xml")/r/s]',
)


@pytest.mark.parametrize("query", NODE_COMPARISONS)
def test_node_comparisons_loop_lifted(db, query):
    oracle = db.query(query, strategy="basic").serialize()
    assert db.compile(query).strategy == "ll"
    assert db.query(query, strategy="ll").serialize() == oracle
    assert db.query(query).serialize() == oracle


def test_node_comparison_type_error_matches_oracle(db):
    from repro.errors import XQueryTypeError

    query = 'for $i in (1, 2) return doc("d.xml")//x is doc("d.xml")/r'
    for strategy in ("basic", "ll"):
        with pytest.raises(XQueryTypeError):
            db.query(query, strategy=strategy)


def test_xmark_q4_loop_lifted():
    """Q4 (``<<`` under two quantifiers) on a document where it matches
    and on a generated XMark document."""
    small = Database()
    small.add_document("x.xml", """<site><open_auctions>
      <open_auction id="o1"><bidder><personref person="person20"/>
        </bidder><bidder><personref person="person40"/></bidder>
      </open_auction>
      <open_auction id="o2"><bidder><personref person="person40"/>
        </bidder><bidder><personref person="person20"/></bidder>
      </open_auction></open_auctions></site>""")
    xmark = Database()
    xmark.store.add("x.xml", generate_xmark_document(scale=0.2, seed=5))
    query = extended_query_text("q4", "x.xml")
    assert small.query(query, strategy="basic").serialize() \
        == "<history>o1</history>"
    for database in (small, xmark):
        oracle = database.query(query, strategy="basic").serialize()
        assert database.compile(query).strategy == "ll"
        assert database.query(query, strategy="ll").serialize() == oracle
        assert database.query(query).serialize() == oracle


@pytest.mark.parametrize("query", (
    'for $v in ("v", "w") return doc("d.xml")//x[@a = $v]',
    'for $i in (1, 2, 3) return (doc("d.xml")/r/x)[$i]',
    'for $i in (1, 2) return doc("d.xml")/r/x[$i]',
    'for $x in doc("d.xml")//x, $n in (1, 2) return $x/y[$n]',
    'declare variable $a := "v"; doc("d.xml")//x[@a = $a]',
))
def test_loop_lifted_predicates_see_variables(db, query):
    """Predicates run per item on the iterative evaluator; the
    loop-lifted variables they mention must be bound per iteration."""
    oracle = db.query(query, strategy="basic").serialize()
    assert oracle
    assert db.query(query, strategy="ll").serialize() == oracle


def test_long_if_loop_lifted():
    """A 50k-iteration conditional under ``ll``: one pass splits the
    loop (the false branch used to rebuild a set per iteration)."""
    query = ("sum(for $i in 1 to 50000 "
             "return if ($i mod 2 = 0) then 2 else -1)")
    assert Database().query(query, strategy="ll") == [25000]
