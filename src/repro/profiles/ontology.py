"""Topic ontology underlying static user profiles.

The paper describes profiles over general concepts — "politics", "sports",
"science" — used to set a search query into the user's interest context.
The ontology here is a two-level hierarchy: top-level *categories* (the news
categories of the collection) and, beneath each, the semantic *concepts*
that tend to occur in that category's footage, plus the category's
characteristic vocabulary.  Profile inference walks this structure when it
turns "watched a lot of football shots" into "interested in sports".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.collection.generator import CATEGORY_CONCEPTS
from repro.collection.vocabulary import DEFAULT_CATEGORIES, Vocabulary


@dataclass(frozen=True)
class OntologyNode:
    """One node in the interest ontology."""

    name: str
    kind: str  # "category" or "concept"
    parent: Optional[str] = None
    related_terms: tuple = ()


class InterestOntology:
    """Two-level interest ontology: categories and their concepts."""

    def __init__(self, nodes: Sequence[OntologyNode]) -> None:
        self._nodes: Dict[str, OntologyNode] = {}
        self._children: Dict[str, List[str]] = {}
        for node in nodes:
            if node.name in self._nodes and self._nodes[node.name].kind != node.kind:
                raise ValueError(f"conflicting definitions for node {node.name!r}")
            self._nodes.setdefault(node.name, node)
            if node.parent is not None:
                self._children.setdefault(node.parent, [])
                if node.name not in self._children[node.parent]:
                    self._children[node.parent].append(node.name)

    # -- construction ---------------------------------------------------------

    @classmethod
    def default(cls, vocabulary: Optional[Vocabulary] = None) -> "InterestOntology":
        """Build the default ontology from the collection's categories.

        When a vocabulary is supplied, each category node carries its most
        central terms so profile-based query expansion has something to
        expand with.
        """
        nodes: List[OntologyNode] = []
        for category in DEFAULT_CATEGORIES:
            related: tuple = ()
            if vocabulary is not None and category in vocabulary.categories:
                related = tuple(vocabulary.model_for(category).top_terms(15))
            nodes.append(
                OntologyNode(name=category, kind="category", related_terms=related)
            )
            for concept in CATEGORY_CONCEPTS.get(category, ()):
                nodes.append(
                    OntologyNode(name=concept, kind="concept", parent=category)
                )
        return cls(nodes)

    # -- queries ----------------------------------------------------------------

    def categories(self) -> List[str]:
        """All category node names."""
        return sorted(
            name for name, node in self._nodes.items() if node.kind == "category"
        )

    def concepts(self) -> List[str]:
        """All concept node names."""
        return sorted(
            name for name, node in self._nodes.items() if node.kind == "concept"
        )

    def has_node(self, name: str) -> bool:
        """True if the ontology contains a node with this name."""
        return name in self._nodes

    def node(self, name: str) -> OntologyNode:
        """Look up a node by name."""
        if name not in self._nodes:
            raise KeyError(f"unknown ontology node {name!r}")
        return self._nodes[name]

    def concepts_of_category(self, category: str) -> List[str]:
        """Concept children of a category."""
        return list(self._children.get(category, ()))

    def categories_of_concept(self, concept: str) -> List[str]:
        """Categories under which a concept appears."""
        return sorted(
            parent
            for parent, children in self._children.items()
            if concept in children
        )

    def terms_for_category(self, category: str) -> List[str]:
        """The characteristic vocabulary attached to a category node."""
        return list(self.node(category).related_terms)

    def __len__(self) -> int:
        return len(self._nodes)
