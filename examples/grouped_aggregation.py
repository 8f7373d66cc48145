#!/usr/bin/env python
"""Grouped aggregation — a TOSS extension.

**Grouping + aggregation** (`repro.tax.grouping`): the rest of the
original TAX algebra, evaluated under TOSS's SEO-aware conditions —
here, counting a similar-author's papers per venue.

Run:  python examples/grouped_aggregation.py
"""

from repro.core.parser import parse_query
from repro.data import generate_corpus, render_dblp
from repro.experiments.workload import build_system
from repro.tax.conditions import NodeContent
from repro.tax.grouping import GROUP_BASIS_TAG, aggregation, grouping


def main() -> None:
    corpus = generate_corpus(150, seed=13)
    dblp = render_dblp(corpus, seed=13)
    system = build_system(corpus, [dblp], epsilon=3.0)

    # The most prolific author in this corpus.
    frequency = {}
    for paper in corpus.papers:
        for author_id in paper.author_ids:
            frequency[author_id] = frequency.get(author_id, 0) + 1
    target = corpus.authors[max(frequency, key=frequency.get)].canonical
    print(f'Target author: "{target}"')
    print()

    # Group the similar-author answers by venue and count per group.
    grouping_parsed = parse_query(
        f'inproceedings(author ~ "{target}", booktitle $v)'
    )
    groups = grouping(
        system.instances["dblp"].trees,
        grouping_parsed.pattern,
        [NodeContent(grouping_parsed.label("v"))],
        sl_labels=grouping_parsed.roots,
        context=system.context,
    )
    counts = aggregation(groups, "count")
    print("Papers per venue (similarity-matched author):")
    for row in counts:
        venue = row.child_by_tag(GROUP_BASIS_TAG).children[0].text
        print(f"  {venue:<22} {row.child_by_tag('value').text}")


if __name__ == "__main__":
    main()
