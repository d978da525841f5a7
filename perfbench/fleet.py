"""Seeded inputs for the serving benchmark: documents, query streams, oracle.

Everything here is a pure function of the seeds it is given; the
program under test only ever sees the generated documents, XPath
strings and view definitions.  The oracle is direct evaluation of
each query on its document (``ViewStore.evaluate``), encoded as sorted
preorder ids exactly like every serving path answers.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.catalog import CatalogSpec, DocumentSpec
from repro.patterns.ast import Pattern, PNode
from repro.patterns.parse import parse_pattern
from repro.patterns.random import PatternConfig, random_pattern
from repro.patterns.serialize import to_xpath
from repro.views.store import ViewStore
from repro.workloads.streams import StreamConfig, sample_stream, zipf_weights
from repro.xmltree.generate import random_tree

# The curated half-views are chosen exactly as the catalog benchmark
# chooses them (three templates per document).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_catalog import _intersection_fragments  # noqa: E402

#: Cache sizes the workloads are shaped against: the catalog's
#: per-document answer cache and the process-wide containment LRU.
ANSWER_CACHE = 512
CONTAINMENT_CACHE = 65_536

DOCUMENT_SIZE = 1_200
MAX_VIEWS = 3
TEMPLATES = 12
#: Query shape.  The descendant-edge share is the generator's default:
#: at 0.5 a few specialisations need about a million canonical models
#: each, and two queries out of a thousand took 80% of a cold run.
QUERY_SHAPE = PatternConfig(depth=4, branch_prob=0.5, descendant_prob=0.3)
#: Views the workloads write: shallower than the queries, so a new view
#: can answer some of them.
VIEW_SHAPE = PatternConfig(depth=2, branch_prob=0.3, descendant_prob=0.4)


@dataclass
class Fleet:
    """Documents, their advised templates and the catalog spec."""

    spec: CatalogSpec
    templates: dict[str, list[Pattern]]
    oracle_store: ViewStore
    _expected: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    @property
    def doc_ids(self) -> list[str]:
        return [doc.doc_id for doc in self.spec.documents]

    def forget_answers(self) -> None:
        """Drop the cached oracle answers (a cold round's are single-use)."""
        self._expected.clear()

    def expected(self, doc_id: str, xpath: str) -> list[int]:
        """Sorted preorder ids of ``xpath`` evaluated directly on ``doc_id``."""
        key = (doc_id, xpath)
        ids = self._expected.get(key)
        if ids is None:
            nodes = self.oracle_store.evaluate(parse_pattern(xpath), doc_id)
            ids = self._expected[key] = self.oracle_store.node_ids(
                doc_id, nodes
            )
        return ids


def make_fleet(seed: int, documents: int) -> Fleet:
    """A ``documents``-document fleet advised on its own templates.

    Three templates per document are also split into curated half-views
    that answer the template only through an intersection plan, the
    regime ``tractable_only=False`` exists for.
    """
    rng = random.Random(seed)
    docs, templates = [], {}
    oracle = ViewStore()
    for index in range(documents):
        doc_id = f"doc-{index}"
        tree = random_tree(DOCUMENT_SIZE, seed=rng.randrange(2**31))
        pool = sample_stream(
            StreamConfig(length=0, templates=TEMPLATES, pattern=QUERY_SHAPE),
            seed=rng.randrange(2**31),
        ).templates
        templates[doc_id] = pool
        oracle.add_document(doc_id, tree)
        halves = _intersection_fragments(pool, tree)
        docs.append(
            DocumentSpec.from_tree(
                doc_id,
                tree,
                pool,
                zipf_weights(len(pool)),
                views=halves,
            )
        )
    spec = CatalogSpec(
        documents=tuple(docs),
        max_views=MAX_VIEWS,
        answer_cache_size=ANSWER_CACHE,
        tractable_only=False,
    )
    return Fleet(spec=spec, templates=templates, oracle_store=oracle)


# ----------------------------------------------------------------------
# Query streams
# ----------------------------------------------------------------------

def zipf_pool(fleet: Fleet, seed: int, size: int) -> dict[str, list[str]]:
    """Per document, ``size`` distinct XPaths: templates, then variants.

    The pool is what the warm workloads repeat: the advised templates
    followed by specialisations of them and some fresh queries, in
    first-appearance order (rank 0 is the most popular).
    """
    rng = random.Random(seed)
    pools = {}
    for doc_id in fleet.doc_ids:
        templates = fleet.templates[doc_id]
        pool: list[str] = []
        seen: set[str] = set()
        for template in templates:
            _add_distinct(pool, seen, template)
        pool += _variants(templates, rng, size - len(pool), 0.75, seen)
        pools[doc_id] = pool
    return pools


def distinct_queries(
    fleet: Fleet, seed: int, per_doc: int
) -> dict[str, list[str]]:
    """Per document, ``per_doc`` XPaths never seen by set-up.

    60% are specialisations of the document's advised templates (the
    rewrite solver can answer them from views); the rest are fresh
    random queries, which fall through to intersection search and
    direct plans.  Templates themselves are excluded: set-up has
    already planned them.
    """
    rng = random.Random(seed)
    return {
        doc_id: _variants(
            fleet.templates[doc_id], rng, per_doc, 0.6,
            {template.signature() for template in fleet.templates[doc_id]},
        )
        for doc_id in fleet.doc_ids
    }


def _variants(
    templates: list[Pattern],
    rng: random.Random,
    count: int,
    specialize_share: float,
    seen: set[str],
) -> list[str]:
    """``count`` distinct XPaths not in ``seen``, in random order.

    Exactly ``specialize_share`` of them specialise a template, and each
    template gets its Zipf share of those (largest remainder); the rest
    are fresh random queries.  Fixing the mix rather than drawing it
    keeps the cost of a sample from swinging with the seed.
    """
    specialized = round(count * specialize_share)
    weights = zipf_weights(len(templates))
    quotas = [specialized * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(
        range(len(templates)), key=lambda i: counts[i] - quotas[i]
    )
    for i in by_remainder[: specialized - sum(counts)]:
        counts[i] += 1
    slots = [i for i, n in enumerate(counts) for _ in range(n)]
    slots += [None] * (count - specialized)
    rng.shuffle(slots)
    out: list[str] = []
    for slot in slots:
        attempt = 0
        while True:
            if slot is None:
                query = random_pattern(QUERY_SHAPE, rng)
            else:
                # A template has only a few dozen one-step
                # specialisations; after repeats, take more steps.
                query = templates[slot]
                for _ in range(1 + attempt // 8):
                    query = _specialize(query, rng)
            if _add_distinct(out, seen, query):
                break
            attempt += 1
    return out


def _specialize(template: Pattern, rng: random.Random) -> Pattern:
    """A strictly more selective variant of ``template``.

    Either deepens the selection path below the output node or adds a
    branch to it, the two moves ``sample_stream`` specialises with.
    """
    copy, mapping = template.copy_with_map()
    out = mapping[template.output]
    child = PNode(QUERY_SHAPE.draw_label(rng))
    out.add(QUERY_SHAPE.draw_axis(rng), child)
    return Pattern(copy.root, child if rng.random() < 0.6 else out)


def _add_distinct(out: list[str], seen: set[str], query: Pattern) -> bool:
    signature = query.signature()
    if signature in seen:
        return False
    seen.add(signature)
    out.append(to_xpath(query))
    return True


def zipf_requests(
    pools: dict[str, list[str]], seed: int, count: int
) -> list[tuple[str, str]]:
    """``count`` requests: uniform document, Zipf-ranked pool entry."""
    rng = random.Random(seed)
    doc_ids = sorted(pools)
    weights = {doc_id: zipf_weights(len(pools[doc_id])) for doc_id in doc_ids}
    requests = []
    for _ in range(count):
        doc_id = rng.choice(doc_ids)
        pool = pools[doc_id]
        index = rng.choices(range(len(pool)), weights=weights[doc_id])[0]
        requests.append((doc_id, pool[index]))
    return requests


def view_stream(seed: int):
    """Distinct shallow view XPaths for writes, without end."""
    rng = random.Random(seed)
    seen: set[str] = set()
    views: list[str] = []
    while True:
        if _add_distinct(views, seen, random_pattern(VIEW_SHAPE, rng)):
            yield views[-1]
