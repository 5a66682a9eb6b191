"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same documents, the same query sequence and the same write sequence.
The engine under test only ever sees the generated text.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

XMARK_URI = "xmark.xml"
CORPUS_URI = "corpus.xml"

WORDS = (
    "the a of stand off annotation region blob query join merge loop "
    "lifted staircase node tree text token entity sentence chunk layer "
    "video audio shot scene music speech gene exon intron read align "
    "court exhibit page line word offset start end span overlap"
).split()

ENTITY_KINDS = ("person", "place", "date", "org")


def xmark_standoff(scale: float, seed: int) -> tuple[str, str]:
    """A permuted, standoffized XMark document: ``(xml, blob)``."""
    from repro.xmark import generate_xmark_document, standoffize

    bundle = standoffize(generate_xmark_document(scale=scale, seed=seed),
                         permute=True)
    return bundle.document.serialize(), bundle.blob


def xmark_inline(scale: float, seed: int) -> str:
    """An inline (text-bearing) XMark document."""
    from repro.xmark import generate_xmark

    return generate_xmark(scale=scale, seed=seed)


# ----------------------------------------------------------------------
# the multi-layer annotation corpus
# ----------------------------------------------------------------------

@dataclass
class Corpus:
    """A stand-off annotation corpus plus the ground truth it implies.

    Tokens, sentences, entities and chunks all annotate one BLOB offset
    space (inclusive ``start``/``end`` attributes).  The entity layer
    is the one the write workload mutates; :meth:`expected` answers the
    benchmark's reads from this model, never from the engine.
    """

    blob: str
    tokens: list[tuple[int, int]]
    sentences: list[tuple[int, int]]
    chunks: list[tuple[int, int]]
    #: live entities in document order: ``id -> (start, end)``
    entities: dict[str, tuple[int, int]] = field(default_factory=dict)
    next_entity: int = 0

    def xml(self) -> str:
        def layer(tag: str, prefix: str, spans) -> str:
            return "".join(f'<{tag} id="{prefix}{i}" start="{s}" end="{e}"/>'
                           for i, (s, e) in enumerate(spans))
        entities = "".join(self.entity_xml(eid, span)
                           for eid, span in self.entities.items())
        return ("<corpus>"
                f"<tokens>{layer('token', 't', self.tokens)}</tokens>"
                f"<sentences>{layer('sentence', 's', self.sentences)}"
                "</sentences>"
                f"<entities>{entities}</entities>"
                f"<chunks>{layer('chunk', 'c', self.chunks)}</chunks>"
                "</corpus>")

    @staticmethod
    def entity_xml(eid: str, span: tuple[int, int]) -> str:
        kind = ENTITY_KINDS[int(eid[1:]) % len(ENTITY_KINDS)]
        return (f'<entity id="{eid}" type="{kind}" '
                f'start="{span[0]}" end="{span[1]}"/>')

    def new_entity(self, rng: random.Random) -> tuple[str, tuple[int, int]]:
        """A fresh entity over 1-4 consecutive tokens (not yet live)."""
        first = rng.randrange(len(self.tokens))
        last = min(len(self.tokens) - 1, first + rng.randrange(4))
        eid = f"e{self.next_entity}"
        self.next_entity += 1
        return eid, (self.tokens[first][0], self.tokens[last][1])

    @property
    def annotation_count(self) -> int:
        return (len(self.tokens) + len(self.sentences) + len(self.chunks)
                + len(self.entities))

    # -- ground truth ----------------------------------------------------

    def expected(self, read: str) -> str:
        """The serialized answer of read *read* (see ``READS``).

        Tokens and sentences are sorted and disjoint, so both their
        start and end columns ascend and bisection finds the layer
        members inside or overlapping an entity.
        """
        spans = list(self.entities.values())
        if read == "select-narrow":
            starts = [s for s, _e in self.tokens]
            ends = [e for _s, e in self.tokens]
            return "\n".join(
                str(max(0, bisect_right(ends, e) - bisect_left(starts, s)))
                for s, e in spans)
        layer = {"select-wide": self.sentences,
                 "reject-wide": self.tokens}[read]
        starts = [s for s, _e in layer]
        ends = [e for _s, e in layer]
        overlapped = set()
        for s, e in spans:
            overlapped.update(range(bisect_left(ends, s),
                                    bisect_right(starts, e)))
        if read == "select-wide":
            return str(len(overlapped))
        return str(len(layer) - len(overlapped))


#: The three containment reads of the annotation workload.  The
#: select-narrow read is FLWOR-nested: under the per-iteration strategy
#: it runs one join per entity, under loop-lifting one join in total.
READS = {
    "select-narrow": (f'for $e in doc("{CORPUS_URI}")//entity '
                      'return count($e/select-narrow::token)'),
    "select-wide": (f'count(doc("{CORPUS_URI}")//entity'
                    '/select-wide::sentence)'),
    "reject-wide": (f'count(doc("{CORPUS_URI}")//entity'
                    '/reject-wide::token)'),
}


def corpus(n_tokens: int, n_entities: int, seed: int) -> Corpus:
    """Generate a corpus of *n_tokens* tokens and *n_entities* entities."""
    rng = random.Random(seed)
    words = [rng.choice(WORDS) for _ in range(n_tokens)]
    tokens, cursor = [], 0
    for word in words:
        tokens.append((cursor, cursor + len(word) - 1))
        cursor += len(word) + 1
    blob = " ".join(words)

    def partition(lo: int, hi: int) -> list[tuple[int, int]]:
        spans, i = [], 0
        while i < n_tokens:
            j = min(n_tokens, i + rng.randint(lo, hi))
            spans.append((tokens[i][0], tokens[j - 1][1]))
            i = j
        return spans

    result = Corpus(blob, tokens, partition(8, 24), partition(2, 5))
    for _ in range(n_entities):
        eid, span = result.new_entity(rng)
        result.entities[eid] = span
    return result
