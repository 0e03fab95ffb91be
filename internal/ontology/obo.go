package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseOBO reads an ontology from a subset of the OBO flat-file format:
//
//	format-version: 1.2
//	ontology: go
//
//	[Term]
//	id: GO:0008233
//	name: peptidase activity
//	synonym: "protease activity" EXACT []
//	def: "Catalysis of the hydrolysis of peptide bonds." []
//	is_a: GO:0003824 ! catalytic activity
//	relationship: part_of GO:0044238 ! primary metabolic process
//
// Unknown tags and non-Term stanzas are ignored. Edges referencing terms
// that never appear are rejected.
func ParseOBO(r io.Reader) (*Ontology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	name := "obo"
	type pendingEdge struct {
		from, to, rel string
		line          int
	}
	var edges []pendingEdge
	o := New(name)
	var cur *Term
	inTerm := false
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "!") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			inTerm = line == "[Term]"
			cur = nil
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("ontology: obo line %d: missing ':'", lineNo)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		// Strip trailing "! comment".
		if i := strings.Index(val, " ! "); i >= 0 {
			val = strings.TrimSpace(val[:i])
		}
		if !inTerm {
			if key == "ontology" {
				o.name = val
			}
			continue
		}
		switch key {
		case "id":
			if cur != nil {
				return nil, fmt.Errorf("ontology: obo line %d: duplicate id in stanza", lineNo)
			}
			t, err := o.AddTerm(val, "")
			if err != nil {
				return nil, fmt.Errorf("ontology: obo line %d: %w", lineNo, err)
			}
			cur = t
		case "name":
			if cur == nil {
				return nil, fmt.Errorf("ontology: obo line %d: name before id", lineNo)
			}
			cur.Name = val
		case "def":
			if cur != nil {
				cur.Def = stripQuoted(val)
			}
		case "synonym":
			if cur != nil {
				cur.Synonyms = append(cur.Synonyms, stripQuoted(val))
			}
		case "is_a":
			if cur == nil {
				return nil, fmt.Errorf("ontology: obo line %d: is_a before id", lineNo)
			}
			edges = append(edges, pendingEdge{cur.ID, firstField(val), IsA, lineNo})
		case "relationship":
			if cur == nil {
				return nil, fmt.Errorf("ontology: obo line %d: relationship before id", lineNo)
			}
			fields := strings.Fields(val)
			if len(fields) < 2 {
				return nil, fmt.Errorf("ontology: obo line %d: relationship needs 'rel target'", lineNo)
			}
			edges = append(edges, pendingEdge{cur.ID, fields[1], fields[0], lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ontology: obo read: %w", err)
	}
	for _, e := range edges {
		if err := o.AddEdge(e.from, e.to, e.rel, Some); err != nil {
			return nil, fmt.Errorf("ontology: obo line %d: %w", e.line, err)
		}
	}
	return o, nil
}

func stripQuoted(s string) string {
	if len(s) >= 2 && s[0] == '"' {
		if i := strings.Index(s[1:], `"`); i >= 0 {
			return s[1 : i+1]
		}
	}
	return s
}

func firstField(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}
