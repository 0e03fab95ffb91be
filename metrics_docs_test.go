package graphitti

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphitti/internal/obs"

	// The registry fills at package init; importing the API layer pulls
	// in every instrumented package (core, durable, wal, query, obs).
	_ "graphitti/internal/httpapi"
)

// docRow matches the first column of a metric table row in
// docs/METRICS.md: `| `graphitti_…` | …` (plus the process_/go_ runtime
// gauge families).
var docRow = regexp.MustCompile("^\\| `((?:graphitti_|process_|go_)[a-zA-Z0-9_:]+)` \\|")

// TestMetricsDocParity keeps docs/METRICS.md honest: every registered
// metric family must have a table row, every table row must name a
// registered family, and every row must name the question the family
// answers in its table's Question column. A metric added without
// documentation or a question — or a doc row for a metric that was
// renamed or removed — fails here.
func TestMetricsDocParity(t *testing.T) {
	f, err := os.Open("docs/METRICS.md")
	if err != nil {
		t.Fatalf("metric reference missing: %v", err)
	}
	defer f.Close()

	documented := make(map[string]bool)
	question := -1 // the Question column of the table being read
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(line, "| Name |") {
			question = slices.Index(cells, "Question")
			continue
		}
		m := docRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if documented[m[1]] {
			t.Errorf("docs/METRICS.md documents %s twice", m[1])
		}
		documented[m[1]] = true
		if question < 0 || question >= len(cells) || !strings.HasSuffix(cells[question], "?") {
			t.Errorf("docs/METRICS.md names no question for %s", m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(documented) == 0 {
		t.Fatal("no metric rows found in docs/METRICS.md — table format changed?")
	}

	var expo bytes.Buffer
	if err := obs.Default.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ValidateExposition(&expo)
	if err != nil {
		t.Fatal(err)
	}
	var registered []string
	for name := range exp.Families {
		registered = append(registered, name)
	}
	sort.Strings(registered)
	for _, name := range registered {
		if !documented[name] {
			t.Errorf("metric %s is registered but not documented in docs/METRICS.md", name)
		}
		delete(documented, name)
	}
	if len(documented) > 0 {
		var stale []string
		for name := range documented {
			stale = append(stale, name)
		}
		sort.Strings(stale)
		for _, name := range stale {
			t.Errorf("docs/METRICS.md documents %s, which is not registered", name)
		}
	}
}
