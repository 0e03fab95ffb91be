// Exposition: the registry rendered as Prometheus text format (the
// /metrics endpoint), expvar-style JSON (/debug/vars), and flat CSV
// (bench artifacts), plus a text-format validator used by the golden
// tests and the CI scrape check.

package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatValue renders a sample value the way Prometheus clients do:
// shortest float representation, integers without a decimal point.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text-format rules.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the text-format rules.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labelString renders {k="v",...} from parallel name/value slices; extra
// appends pre-rendered pairs (the histogram le label). Empty when there
// are no pairs.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	for i, e := range extra {
		if i > 0 || len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// families in name order, children in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	bw := bufio.NewWriter(w)
	for _, f := range r.sorted() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.eachChild(func(values []string, inst any) {
			switch m := inst.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %s\n", f.name,
					labelString(f.labels, values), formatValue(float64(m.Value())))
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name,
					labelString(f.labels, values), formatValue(float64(m.Value())))
			case *Histogram:
				cum, total := m.bucketCumulative()
				for i, b := range m.bounds {
					le := `le="` + formatValue(b) + `"`
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, values, le), cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, `le="+Inf"`), total)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name,
					labelString(f.labels, values), formatValue(m.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name,
					labelString(f.labels, values), total)
			}
		})
	}
	return bw.Flush()
}

// eachChild visits the family's instruments in deterministic order: the
// single unlabeled instrument, or the labeled children sorted by label
// values. Vec children can be added concurrently; the visit sees a
// snapshot of the key list.
func (f *family) eachChild(visit func(values []string, inst any)) {
	if f.single != nil {
		visit(nil, f.single)
		return
	}
	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	for i, k := range keys {
		visit(splitLabelKey(k), children[i])
	}
}

// WriteJSON renders the registry as one JSON object in expvar style:
// scalar metrics map name to value; labeled families map name to an
// object keyed by "k=v,..."; histograms render {count, sum, p50, p99}.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.collect()
	bw := bufio.NewWriter(w)
	bw.WriteString("{")
	firstFam := true
	for _, f := range r.sorted() {
		if !firstFam {
			bw.WriteString(",")
		}
		firstFam = false
		fmt.Fprintf(bw, "\n  %s: ", strconv.Quote(f.name))
		if f.single != nil {
			writeJSONInst(bw, f.single)
			continue
		}
		bw.WriteString("{")
		firstChild := true
		f.eachChild(func(values []string, inst any) {
			if !firstChild {
				bw.WriteString(", ")
			}
			firstChild = false
			pairs := make([]string, len(values))
			for i, v := range values {
				pairs[i] = f.labels[i] + "=" + v
			}
			fmt.Fprintf(bw, "%s: ", strconv.Quote(strings.Join(pairs, ",")))
			writeJSONInst(bw, inst)
		})
		bw.WriteString("}")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// jsonFloat renders a float as JSON (no NaN/Inf literals in JSON: null).
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeJSONInst(w io.Writer, inst any) {
	switch m := inst.(type) {
	case *Counter:
		fmt.Fprintf(w, "%d", m.Value())
	case *Gauge:
		fmt.Fprintf(w, "%d", m.Value())
	case *Histogram:
		fmt.Fprintf(w, `{"count": %d, "sum": %s, "p50": %s, "p99": %s}`,
			m.Count(), jsonFloat(m.Sum()), jsonFloat(m.Quantile(0.5)), jsonFloat(m.Quantile(0.99)))
	}
}

// Exposition is the parsed summary ValidateExposition returns: the
// family names seen (TYPE lines plus bare sample bases) and the sample
// count.
type Exposition struct {
	// Families maps each declared family name to its TYPE.
	Families map[string]string
	// Samples is the total number of sample lines.
	Samples int
}

// ValidateExposition parses Prometheus text format 0.0.4 strictly and
// returns a summary, or an error naming the first malformed line. It
// enforces: legal metric/label names, float-parsable values, TYPE/HELP
// declared at most once and before the family's samples, no duplicate
// (name, labels) sample, histogram families carrying _sum, _count and a
// le="+Inf" bucket, and a newline-terminated final line.
func ValidateExposition(r io.Reader) (*Exposition, error) {
	br := bufio.NewReader(r)
	exp := &Exposition{Families: map[string]string{}}
	helped := map[string]bool{}
	sampled := map[string]bool{}  // family base names with samples
	seen := map[string]bool{}     // exact name{labels} tuples
	histParts := map[string]int{} // histogram family -> bitmask of sum|count|+Inf
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if line != "" {
				return nil, fmt.Errorf("line %d: missing trailing newline", lineNo+1)
			}
			break
		}
		if err != nil {
			return nil, err
		}
		lineNo++
		line = strings.TrimSuffix(line, "\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, exp, helped, sampled); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		exp.Samples++
		base, part := histogramBase(name, labels)
		if typ, ok := exp.Families[base]; ok && typ == "histogram" && part != 0 {
			histParts[base] |= part
			sampled[base] = true
			continue
		}
		// A sample with no TYPE is legal (untyped); record it as such.
		if _, ok := exp.Families[name]; !ok {
			exp.Families[name] = "untyped"
		}
		sampled[name] = true
	}
	for name, typ := range exp.Families {
		if typ != "histogram" || !sampled[name] {
			// A declared histogram vec with no children yet emits only
			// HELP/TYPE; that is valid exposition.
			continue
		}
		const wantParts = partSum | partCount | partInf
		if histParts[name]&wantParts != wantParts {
			return nil, fmt.Errorf("histogram %s is missing _sum, _count or a le=\"+Inf\" bucket", name)
		}
	}
	return exp, nil
}

const (
	partSum = 1 << iota
	partCount
	partInf
	partBucket
)

// histogramBase maps a histogram series name to its family base name and
// which structural part it is; (name, 0) when it is not a histogram part.
func histogramBase(name, labels string) (string, int) {
	switch {
	case strings.HasSuffix(name, "_sum"):
		return strings.TrimSuffix(name, "_sum"), partSum
	case strings.HasSuffix(name, "_count"):
		return strings.TrimSuffix(name, "_count"), partCount
	case strings.HasSuffix(name, "_bucket"):
		base := strings.TrimSuffix(name, "_bucket")
		if strings.Contains(labels, `le="+Inf"`) {
			return base, partBucket | partInf
		}
		return base, partBucket
	}
	return name, 0
}

// parseComment validates a # line: HELP/TYPE with ordering rules, or a
// free comment.
func parseComment(line string, exp *Exposition, helped, sampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if helped[fields[2]] {
			return fmt.Errorf("second HELP for %s", fields[2])
		}
		helped[fields[2]] = true
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		if _, dup := exp.Families[name]; dup {
			return fmt.Errorf("second TYPE for %s", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		exp.Families[name] = typ
	}
	return nil
}

// parseSample validates one sample line and returns its metric name and
// raw label block (without braces).
func parseSample(line string) (name, labels string, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return "", "", fmt.Errorf("unterminated label block in %q", line)
		}
		labels = rest[1:end]
		if err := validateLabels(labels); err != nil {
			return "", "", fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	if _, perr := strconv.ParseFloat(strings.TrimPrefix(fields[0], "+"), 64); perr != nil {
		return "", "", fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, perr := strconv.ParseInt(fields[1], 10, 64); perr != nil {
			return "", "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, nil
}

// validateLabels checks a label block body: k="v" pairs, comma-separated,
// with escaped values.
func validateLabels(block string) error {
	rest := block
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return fmt.Errorf("bad label pair %q", rest)
		}
		lname := rest[:eq]
		if !validName(lname) || strings.Contains(lname, ":") {
			return fmt.Errorf("invalid label name %q", lname)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", lname)
		}
		rest = rest[1:]
		// Scan to the closing quote, honoring escapes.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value after %q", lname)
		}
		rest = rest[end+1:]
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return fmt.Errorf("expected ',' between labels, got %q", rest)
		}
		rest = rest[1:]
	}
	return nil
}
