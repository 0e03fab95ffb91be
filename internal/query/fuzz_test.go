package query

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzQuery: Parse never panics, whatever the input, and a query that
// parses runs to an answer or an error — never a panic — on a small fixed
// view, capped at a few matches, under a short deadline, planned either
// way and joined either way. The seeds are the queries this package's
// tests spell out.
func FuzzQuery(f *testing.F) {
	for _, src := range testQueries(f) {
		f.Add(src, uint8(0))
	}
	v := newQueryStore(f).View()
	f.Fuzz(func(t *testing.T, src string, mode uint8) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		var order []string
		if mode&1 == 1 {
			order = declarationOrder(q)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		e := &execution{view: v, ctx: ctx, nestedLoop: mode>>1&1 == 1}
		_, _ = e.executeOrdered(q, Options{MaxResults: 8}, order)
	})
}

// goString matches a Go string literal, raw or interpreted.
var goString = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\\n]|\\\\.)*\"")

// testQueries returns every string literal in this package's tests that
// holds "select": the queries they parse or run, good and bad.
func testQueries(tb testing.TB) []string {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, lit := range goString.FindAllString(string(data), -1) {
			if s, err := strconv.Unquote(lit); err == nil && strings.Contains(s, "select") {
				out = append(out, s)
			}
		}
	}
	if len(out) < 20 {
		tb.Fatalf("found %d queries in the package's tests, want at least 20", len(out))
	}
	return out
}
