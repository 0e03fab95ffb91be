package agraph

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the subgraph in Graphviz DOT format, with node shapes per
// kind (contents as boxes, referents as ellipses, terms as diamonds,
// objects as folders) and terminals highlighted. The output is what the
// paper's query tab renders visually as "an annotation graph".
func (s *Subgraph) DOT(name string) string {
	var sb strings.Builder
	if name == "" {
		name = "agraph"
	}
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=LR;\n")
	terminals := make(map[NodeRef]bool, len(s.Terminals))
	for _, t := range s.Terminals {
		terminals[t] = true
	}
	nodes := append([]NodeRef(nil), s.Nodes...)
	sortRefs(nodes)
	for _, n := range nodes {
		attrs := []string{fmt.Sprintf("label=%q", n.String()), "shape=" + dotShape(n.Kind)}
		if terminals[n] {
			attrs = append(attrs, "style=filled", `fillcolor="#ffd54f"`)
		}
		fmt.Fprintf(&sb, "  %q [%s];\n", n.String(), strings.Join(attrs, ", "))
	}
	edges := append([]Edge(nil), s.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].ID < edges[j].ID })
	for _, e := range edges {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n",
			e.From.String(), e.To.String(), string(e.Label))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func dotShape(k NodeKind) string {
	switch k {
	case ContentNode:
		return "box"
	case ReferentNode:
		return "ellipse"
	case TermNode:
		return "diamond"
	case ObjectNode:
		return "folder"
	default:
		return "plaintext"
	}
}
