"""Graphviz DOT export for nets and reachability graphs.

The paper's graphical notation (places as circles, transitions as boxes,
inhibitor arcs as dark bubbles) maps directly onto Graphviz: this module
emits deterministic ``.dot`` text so users with Graphviz installed can
render publication-style figures of their models, and reachability
graphs can be inspected visually. No Graphviz dependency is required to
*emit* the text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.net import PetriNet

if TYPE_CHECKING:
    from ..reachability.graph import ReachabilityGraph


def _quote(text: str) -> str:
    # DOT strings keep backslash sequences (\n is a label line break);
    # only double quotes need escaping.
    escaped = text.replace('"', '\\"')
    return f'"{escaped}"'


def net_to_dot(
    net: PetriNet,
    marking=None,
    rankdir: str = "TB",
    include_delays: bool = True,
) -> str:
    """Render a net as DOT: circles for places, boxes for transitions.

    ``marking`` (optional mapping) annotates places with token counts —
    pass a simulator's current marking to snapshot a state. Inhibitor
    arcs use the ``odot`` arrowhead (the paper's dark bubble).
    """
    lines = [
        f"digraph {_quote(net.name)} {{",
        f"  rankdir={rankdir};",
        "  node [fontsize=10];",
    ]
    for name, place in net.places.items():
        label = name
        if marking is not None:
            tokens = marking[name]
            if tokens:
                label += f"\\n{tokens}"
        elif place.initial_tokens:
            label += f"\\n{place.initial_tokens}"
        lines.append(
            f"  {_quote(name)} [shape=circle, label={_quote(label)}];"
        )
    for name, transition in net.transitions.items():
        label = name
        if include_delays:
            extras = []
            if not transition.firing_time.is_zero():
                extras.append(f"fire={transition.firing_time.mean():g}")
            if not transition.enabling_time.is_zero():
                extras.append(f"enab={transition.enabling_time.mean():g}")
            if transition.frequency != 1.0:
                extras.append(f"freq={transition.frequency:g}")
            if extras:
                label += "\\n" + " ".join(extras)
        lines.append(
            f"  {_quote(name)} [shape=box, style=filled, "
            f"fillcolor=lightgray, label={_quote(label)}];"
        )
    for t in net.transition_names():
        for p, w in net.inputs_of(t).items():
            attr = f' [label="{w}"]' if w > 1 else ""
            lines.append(f"  {_quote(p)} -> {_quote(t)}{attr};")
        for p, w in net.outputs_of(t).items():
            attr = f' [label="{w}"]' if w > 1 else ""
            lines.append(f"  {_quote(t)} -> {_quote(p)}{attr};")
        for p, threshold in net.inhibitors_of(t).items():
            label = f', label="{threshold}"' if threshold > 1 else ""
            lines.append(
                f"  {_quote(p)} -> {_quote(t)} [arrowhead=odot{label}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def reachability_to_dot(
    graph: ReachabilityGraph,
    max_states: int = 200,
    label_states: bool = True,
) -> str:
    """Render a reachability graph as DOT (bounded to ``max_states``).

    The initial state is drawn with a double border; deadlocks in red.
    State labels show the marking (or the timed-state rendering).
    """
    lines = ["digraph reachability {", "  rankdir=LR;",
             "  node [fontsize=9, shape=ellipse];"]
    shown = min(len(graph), max_states)
    deadlocks = set(graph.deadlocks())
    for node in range(shown):
        state = graph.state_of(node)
        if label_states:
            pretty = getattr(state, "pretty", None)
            text = pretty() if callable(pretty) else str(state)
            label = f"#{node}\\n{text}"
        else:
            label = f"#{node}"
        attrs = [f"label={_quote(label)}"]
        if node == graph.initial:
            attrs.append("peripheries=2")
        if node in deadlocks:
            attrs.append("color=red")
        lines.append(f"  n{node} [{', '.join(attrs)}];")
    for edge in graph.edges:
        if edge.source >= shown or edge.target >= shown:
            continue
        label = edge.label
        if edge.duration:
            label += f" ({edge.duration:g})"
        lines.append(
            f"  n{edge.source} -> n{edge.target} [label={_quote(label)}];"
        )
    if shown < len(graph):
        lines.append(
            f'  truncated [shape=plaintext, label="... {len(graph) - shown}'
            ' more states"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
