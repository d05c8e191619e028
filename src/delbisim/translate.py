"""Model translations between the link-deletion and point-deletion worlds.

``translate_F`` splits every edge with a fresh intermediate world marked by
the new proposition ``i``, so that deleting the intermediate world plays the
role of deleting the original edge.  ``translate_G`` adds a sink world
marked ``j`` that every original world points at; cutting a world's link to
the sink plays the role of deleting that world.

The printed definition of the sink translation's relation keeps only edges
whose target still reaches the sink, which excludes the very links to the
sink that the deletion story needs.  Both readings are shipped: ``literal``
(the definition as printed) and ``intent`` (keep the sink links).

The correspondence between the original and translated bisimilarity checks
is exploratory; ``correspondence_report`` measures it on a seeded sample
with deletions restricted to the marked items and renders the observations,
it does not assert them.
"""

from __future__ import annotations

from .bisim import check, filtered_check, random_model
from .model import KripkeModel, ModelError, PointedModel, save_model

EDGE_WORLD_SEP = "·"  # middle dot, as in "u·v·i"
SAMPLE_BOUND = 3  # each report pair has at most this many worlds and edges


def translate_F(m: KripkeModel) -> KripkeModel:
    """Replace each edge (u, v) by u -> (u·v·i) -> v with ``i`` at the middle."""
    if "i" in m.propositions:
        raise ModelError("translate_F: proposition 'i' is already declared")
    edge_worlds = {}
    for u, v in m.edges:
        name = f"{u}{EDGE_WORLD_SEP}{v}{EDGE_WORLD_SEP}i"
        if name in m.worlds or name in edge_worlds.values():
            raise ModelError(f"translate_F: generated world id {name!r} collides")
        edge_worlds[(u, v)] = name
    edges = []
    for (u, v), name in edge_worlds.items():
        edges.append((u, name))
        edges.append((name, v))
    valuation = {p: ws for p, ws in m.valuation}
    valuation["i"] = tuple(edge_worlds.values())
    return KripkeModel.make(
        tuple(m.worlds) + tuple(edge_worlds.values()),
        edges,
        tuple(m.propositions) + ("i",),
        valuation,
    )


def translate_G(m: KripkeModel, edges_to_sink: str = "literal") -> KripkeModel:
    """Add a sink world ``w_j`` (marked ``j``) linked from every original world.

    ``edges_to_sink='literal'`` applies the relation comprehension as
    printed, which drops the links into the sink; ``'intent'`` keeps them.
    """
    if edges_to_sink not in ("literal", "intent"):
        raise ValueError(f"unknown edges-to-sink mode {edges_to_sink!r}")
    if "j" in m.propositions:
        raise ModelError("translate_G: proposition 'j' is already declared")
    sink = "w_j"
    if sink in m.worlds:
        raise ModelError(f"translate_G: world id {sink!r} is already declared")
    with_sink = set(m.edges) | {(w, sink) for w in m.worlds}
    if edges_to_sink == "literal":
        edges = {(u, v) for u, v in with_sink if (v, sink) in with_sink}
    else:
        edges = with_sink
    valuation = {p: ws for p, ws in m.valuation}
    valuation["j"] = (sink,)
    return KripkeModel.make(
        tuple(m.worlds) + (sink,),
        sorted(edges),
        tuple(m.propositions) + ("j",),
        valuation,
    )


def correspondence_report(seed: int, count: int) -> dict:
    """Agreement statistics between the native checks and the translated ones.

    Edge deletion is compared against point-style checking on the split
    models with deletions restricted to ``i``-worlds; point deletion against
    edge-style checking on the sink models (intent mode) with deletions
    restricted to edges into the sink.  The restricted checkers compare
    deletable-item counts in their size gate.  Each pair is tallied as it is
    checked; only the first ten disagreements per direction keep their models.
    """
    if count < 0:
        raise ValueError("count must be at least 0")
    stats = {
        "seed": seed,
        "count": count,
        "max_worlds": SAMPLE_BOUND,
        "max_edges": SAMPLE_BOUND,
        "propositions": ["p"],  # random_model's default pool
    }
    for key in ("edge_to_point", "point_to_edge"):
        stats[key] = {"pairs": count, "agree": 0, "native_yes": 0, "translated_yes": 0,
                      "mismatches": [], "mismatch_count": 0}
    for index in range(count):
        a = random_model(seed + 2 * index, SAMPLE_BOUND, SAMPLE_BOUND)
        b = random_model(seed + 2 * index + 1, SAMPLE_BOUND, SAMPLE_BOUND)
        split = [PointedModel.make(translate_F(pm.model), pm.point) for pm in (a, b)]
        sunk = [PointedModel.make(translate_G(pm.model, "intent"), pm.point)
                for pm in (a, b)]
        answers = (
            ("edge_to_point", check("s", a, b).answer, filtered_check("r", *split, "i").answer),
            ("point_to_edge", check("d", a, b).answer, filtered_check("g", *sunk, "j").answer),
        )
        for key, native, translated in answers:
            body = stats[key]
            body["native_yes"] += native
            body["translated_yes"] += translated
            if native == translated:
                body["agree"] += 1
                continue
            body["mismatch_count"] += 1
            if len(body["mismatches"]) < 10:
                body["mismatches"].append({"index": index, "a": save_model(a), "b": save_model(b),
                                           "native": native, "translated": translated})
    return stats


def render_report(stats: dict) -> str:
    """Markdown rendering of a correspondence report."""

    def section(title, body, native_label, translated_label):
        lines = [f"## {title}", ""]
        lines.append(
            f"Sample: {body['pairs']} pairs; agreement "
            f"{body['agree']}/{body['pairs']}; "
            f"{native_label} yes on {body['native_yes']}, "
            f"{translated_label} yes on {body['translated_yes']}."
        )
        lines.append("")
        if body["mismatch_count"]:
            lines.append(
                f"{body['mismatch_count']} disagreement(s); first cases:"
            )
            lines.append("")
            for mm in body["mismatches"]:
                lines.append(
                    f"- pair {mm['index']}: native={'yes' if mm['native'] else 'no'} "
                    f"translated={'yes' if mm['translated'] else 'no'}"
                )
                lines.append(f"  - A: `{mm['a']}`")
                lines.append(f"  - B: `{mm['b']}`")
        else:
            lines.append("No disagreements in this sample.")
        lines.append("")
        return lines

    lines = [
        "# Translation correspondence report",
        "",
        "Exploratory comparison of the native deletion-bisimilarity checks",
        "against checks run on translated models with deletions restricted",
        "to the marked items (worlds satisfying `i`, edges into the `j`",
        "sink).  The exact adjustment that would make the translated check",
        "coincide with the native one is an open design question, so these",
        "numbers are recorded, not asserted.",
        "",
        f"Deterministic sample: seed {stats['seed']}, {stats['count']} pairs, "
        f"up to {stats['max_worlds']} worlds and {stats['max_edges']} edges, "
        f"propositions {', '.join(stats['propositions'])}.",
        "",
    ]
    lines += section(
        "Edge deletion vs point deletion on split models (F)",
        stats["edge_to_point"],
        "edge-deletion check",
        "restricted point-deletion check",
    )
    lines += section(
        "Point deletion vs edge deletion on sink models (G, intent mode)",
        stats["point_to_edge"],
        "point-deletion check",
        "restricted edge-deletion check",
    )
    return "\n".join(lines)
