"""Writes splice the derived structures; a rebuild is the oracle.

``insert_nodes`` and ``delete_nodes`` patch the DOM numbering, the
shredded columns and every cached region index in place of a rebuild
(``DocumentStore.touch``).  After every write of a random sequence,
each of those must equal a from-scratch build of the same document,
and the StandOff axes must answer as the ``basic``/``ll`` oracle does
over a fresh database loaded from the written document's text.  Under
``REPRO_STORAGE=mmap`` the same sequences exercise the rebuild
fallback.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.config import DEFAULT_CONFIG, StandoffConfig
from repro.core.region_index import RegionIndex
from repro.errors import RegionError
from repro.xmldb.dom import (
    KIND_ATTRIBUTE,
    KIND_TEXT,
    Element,
    renumber_fragment,
)
from repro.xmldb.shred import ShreddedDocument
from repro.xmldb.store import extract_regions

URI = "d.xml"
ELEMENT_FORM = StandoffConfig(region_name="region")
CONFIGS = (DEFAULT_CONFIG, ELEMENT_FORM)
PROLOGS = ("", 'declare option standoff-region "region"\n')
AXES = ("select-narrow", "select-wide", "reject-narrow", "reject-wide")
TAGS = ("a", "b", "c")


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def random_element(rng: random.Random, depth: int = 0) -> str:
    """An element that may be an area-annotation in attribute form, in
    element form (one or more ``<region>`` children: multi-region
    areas), both or neither, with nested annotated children."""
    tag = rng.choice(TAGS)
    attrs = ""
    if rng.random() < 0.5:
        start = rng.randrange(60)
        attrs += f' start="{start}" end="{start + rng.randrange(20)}"'
    if rng.random() < 0.3:
        attrs += f' k="{rng.randrange(9)}"'
    children = []
    if rng.random() < 0.35:
        for _ in range(rng.choice((1, 1, 2, 3))):
            start = rng.randrange(60)
            children.append(f"<region><start>{start}</start>"
                            f"<end>{start + rng.randrange(20)}</end>"
                            "</region>")
    while depth < 3 and rng.random() < 0.55:
        children.append(random_element(rng, depth + 1)
                        if rng.random() < 0.7 else f"w{rng.randrange(9)}")
    rng.shuffle(children)
    return f"<{tag}{attrs}>{''.join(children)}</{tag}>"


def random_fragment(rng: random.Random) -> str:
    """One to three roots: elements, and now and then bare text."""
    return "".join(random_element(rng, 1) if rng.random() < 0.8
                   else f"t{rng.randrange(9)}"
                   for _ in range(rng.randrange(1, 4)))


def picks(rng: random.Random, first: int, last: int) -> str:
    """One to three positions in ``first..last`` (XPath sequence)."""
    count = rng.randrange(1, 4)
    chosen = {rng.randrange(first, last + 1) for _ in range(count)}
    if rng.random() < 0.3:
        # a neighbour: often the child of the first pick (nested)
        chosen.add(min(last, min(chosen) + 1))
    return "(" + ", ".join(map(str, sorted(chosen))) + ")"


def random_write(rng: random.Random, db: Database) -> None:
    document = db.document(URI).document
    nodes = document.all_nodes()
    elements = sum(isinstance(node, Element) for node in nodes)
    attributes = sum(node.kind == KIND_ATTRIBUTE for node in nodes)
    texts = sum(node.kind == KIND_TEXT for node in nodes)
    roll = rng.random()
    path = f'doc("{URI}")'
    if roll < 0.45 or elements < 3:
        db.insert_nodes(URI, f"({path}//*)[position() = "
                             f"{picks(rng, 1, elements)}]",
                        random_fragment(rng))
    elif roll < 0.7:
        db.delete_nodes(URI, f"({path}//*)[position() = "
                             f"{picks(rng, 2, elements)}]")
    elif roll < 0.9 and attributes:
        db.delete_nodes(URI, f"({path}//@*)[position() = "
                             f"{picks(rng, 1, attributes)}]")
    elif texts:
        db.delete_nodes(URI, f"({path}//text())[position() = "
                             f"{picks(rng, 1, texts)}]")


# ----------------------------------------------------------------------
# the rebuild oracle
# ----------------------------------------------------------------------

def outcome(thunk):
    try:
        return thunk()
    except RegionError:
        return "RegionError"


def assert_numbering_fresh(document) -> None:
    spliced = [(node, node.pre, node.size, node.level)
               for node in document.all_nodes()]
    fresh = renumber_fragment(document)
    assert len(fresh) == len(spliced)
    assert all(node is row[0] for node, row in zip(fresh, spliced))
    assert [row[1:] for row in spliced] == \
        [(node.pre, node.size, node.level) for node in fresh]


def assert_shred_fresh(spliced: ShreddedDocument, document) -> None:
    fresh = ShreddedDocument(document)
    for column in ("pre", "size", "level", "kind", "parent"):
        assert np.array_equal(getattr(spliced, column),
                              getattr(fresh, column)), column
        assert not getattr(spliced, column).flags.writeable
    n = len(fresh)
    assert [spliced.name_of(p) for p in range(n)] == \
        [fresh.name_of(p) for p in range(n)]
    # The dictionary only grows (new names are appended): it covers
    # every name in use and still inverts its ids.
    assert set(fresh.names) <= set(spliced.names)
    assert all(spliced.elements_named(nm).size == 0
               for nm in set(spliced.names) - set(fresh.names))
    assert [spliced.value_of(p) for p in range(n)] == \
        [fresh.value_of(p) for p in range(n)]
    for nm in fresh.names:
        assert np.array_equal(spliced.elements_named(nm),
                              fresh.elements_named(nm)), nm
    assert all(spliced.node_by_pre(p) is fresh.node_by_pre(p)
               for p in range(n))


def fresh_table(document, config):
    return RegionIndex.build(extract_regions(document, config)).table


def assert_matches_rebuild(db: Database) -> None:
    stored = db.document(URI)
    document = stored.document
    assert_numbering_fresh(document)
    assert_shred_fresh(stored.shredded, document)
    for config, index in list(stored._region_indexes.items()):
        assert index.table == fresh_table(document, config), config
    oracle = Database()
    oracle.add_document(URI, document.serialize())
    for prolog in PROLOGS:
        for axis in AXES:
            query = f'{prolog}doc("{URI}")//*/{axis}::*'
            got = outcome(lambda: db.query(query).serialize())
            want = outcome(lambda: oracle.query(
                query, strategy="basic", kernel="ll").serialize())
            assert got == want, query


def prime(db: Database) -> None:
    """Build the shred and every config's index, so that the next
    write has cached structures to splice."""
    stored = db.document(URI)
    stored.shredded
    for config in CONFIGS:
        outcome(lambda: stored.region_index(config))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_writes_match_a_rebuild(seed):
    rng = random.Random(seed)
    db = Database()
    db.add_document(URI, "<doc>" + "".join(
        random_element(rng) for _ in range(rng.randrange(1, 4))) + "</doc>")
    prime(db)
    for _ in range(5):
        random_write(rng, db)
        assert_matches_rebuild(db)
        prime(db)


# ----------------------------------------------------------------------
# targeted cases
# ----------------------------------------------------------------------

DOC = ('<doc><a start="0" end="9" k="1"><b start="2" end="3"/>'
       '<region><start>4</start><end>8</end></region></a>'
       '<c start="10" end="20"/></doc>')


@pytest.fixture
def db():
    database = Database()
    database.add_document(URI, DOC)
    prime(database)
    return database


def cached(db, config):
    return db.document(URI)._region_indexes.get(config)


def require_splicing(db):
    if db.document(URI).storage_backend == "mmap":
        pytest.skip("the mmap backend rebuilds after every write, and "
                    "its mapped shreds decode through the live DOM")


def test_local_insert_keeps_every_index(db):
    require_splicing(db)
    db.insert_nodes(URI, f'doc("{URI}")//a',
                    '<d start="5" end="6"/><e><region><start>1</start>'
                    '<end>2</end></region></e>')
    for config in CONFIGS:
        assert cached(db, config) is not None
    assert_matches_rebuild(db)


@pytest.mark.parametrize("write, dropped", [
    # removing a start attribute changes a kept element's region
    (lambda db: db.delete_nodes(URI, f'doc("{URI}")//c/@start'),
     DEFAULT_CONFIG),
    # writing under a <region> changes its owner's area
    (lambda db: db.insert_nodes(URI, f'doc("{URI}")//region',
                                "<start>1</start>"), ELEMENT_FORM),
    (lambda db: db.delete_nodes(URI, f'doc("{URI}")//region/end'),
     ELEMENT_FORM),
    # a new <region> child of an existing element
    (lambda db: db.insert_nodes(
        URI, f'doc("{URI}")//c',
        "<region><start>1</start><end>2</end></region>"), ELEMENT_FORM),
])
def test_non_local_write_rebuilds_its_config_only(db, write, dropped):
    require_splicing(db)
    write(db)
    assert cached(db, dropped) is None
    (kept,) = set(CONFIGS) - {dropped}
    assert cached(db, kept) is not None
    assert_matches_rebuild(db)


def test_reader_holding_the_old_shred_stays_consistent(db):
    require_splicing(db)
    stored = db.document(URI)
    old = stored.shredded
    nodes = [old.node_by_pre(p) for p in range(len(old))]
    db.insert_nodes(URI, f'doc("{URI}")/doc', "<x/><y/>")
    db.delete_nodes(URI, f'doc("{URI}")//b')
    assert stored.shredded is not old
    assert [old.node_by_pre(p) for p in range(len(old))] == nodes
    assert old.elements_named("x").size == 0


def test_duplicate_parents_and_victims(db):
    assert db.insert_nodes(URI, f'(doc("{URI}")//c, doc("{URI}")//c)',
                           '<n start="1" end="1"/>') == 2
    assert_matches_rebuild(db)
    assert db.delete_nodes(URI, f'(doc("{URI}")//n, doc("{URI}")//n)') == 2
    assert_matches_rebuild(db)


def test_nested_victims_in_reverse_order(db):
    assert db.delete_nodes(
        URI, f'(doc("{URI}")//b, doc("{URI}")//a, doc("{URI}")//a/@k)') == 3
    assert_matches_rebuild(db)
    assert db.query(f'count(doc("{URI}")//*)') == [2]


def test_insert_under_parent_and_its_last_descendant(db):
    # //a and its last descendant share the rank their inserts land
    # at: the deeper parent's block comes first.
    db.insert_nodes(URI, f'(doc("{URI}")//a, doc("{URI}")//region/end)',
                    "<m/>")
    assert_matches_rebuild(db)


def test_numbering_walk_is_iterative():
    depth = 100_000
    root = Element("n")
    node = root
    for _ in range(depth - 1):
        node = node.append(Element("n"))
    node.set_attribute("k", "v")
    nodes = renumber_fragment(root, pre=5, level=2)
    assert len(nodes) == depth + 1
    assert (root.pre, root.size, root.level) == (5, depth, 2)
    assert (node.pre, node.size, node.level) == (5 + depth - 1, 1,
                                                 depth + 1)
    assert nodes[-1].pre == 5 + depth and nodes[-1].level == depth + 2
    assert sum(1 for _ in root.descendants()) == depth - 1


def test_deep_document_loads_and_writes():
    depth = 2000
    db = Database()
    db.add_document(URI, "<a>" * depth + "x" + "</a>" * depth)
    prime(db)
    assert db.query(f'count(doc("{URI}")//a)') == [depth]
    db.insert_nodes(URI, f'(doc("{URI}")//a)[last()]',
                    '<b start="1" end="2"/>')
    db.delete_nodes(URI, f'(doc("{URI}")//a)[{depth // 2}]')
    assert db.query(f'count(doc("{URI}")//a)') == [depth // 2 - 1]
    assert db.query(f'count(doc("{URI}")//b)') == [0]


def test_position_beyond_64_bits_is_a_region_error():
    # Text written under an <end> element can concatenate digits into a
    # position no int64 column holds.
    db = Database()
    db.add_document(URI, DOC)
    db.insert_nodes(URI, f'doc("{URI}")//region/end', "9" * 20)
    with pytest.raises(RegionError):
        db.query(f'{PROLOGS[1]}doc("{URI}")//a/select-wide::*')
