package xmldoc

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// buildFromValues builds a document around vals: the root's one attribute,
// an element carrying every value as an attribute and nothing else, an
// element with neither, and mixed content cycling through text nodes,
// text elements and comments. With pad, a text node in the middle makes
// the values total 64 KiB plus cross bytes.
func buildFromValues(vals []string, cross int, pad bool) *Document {
	d := NewDocument("root")
	d.Root.SetAttr("first", vals[0])
	only := d.AddElement(d.Root, "only")
	for i, v := range vals {
		only.SetAttr(fmt.Sprintf("a%d", i), v)
	}
	d.AddElement(d.Root, "bare")
	mixed := d.AddElement(d.Root, "mixed")
	for i, v := range vals {
		switch i % 3 {
		case 0:
			d.AddText(mixed, v)
		case 1:
			d.AddElementText(mixed, "e", v).SetAttr("k", v)
		default:
			_ = d.AppendChild(mixed, d.CreateComment(v))
		}
		if pad && i == len(vals)/2 {
			others := len(vals[0])
			for _, v := range vals {
				others += 2 * len(v) // as an attribute of <only>, and once in <mixed>
			}
			for j := range vals {
				if j%3 == 1 {
					others += len(vals[j]) // the k attribute
				}
			}
			d.AddText(mixed, strings.Repeat("p", max(0, 1<<16+cross-others)))
		}
	}
	return d
}

// reading is what a document's accessors answer, node by node.
type reading struct {
	values, texts, attrs []string
	xml                  string
}

func read(d *Document) reading {
	var r reading
	nodes := []Node{d.Root}
	d.Root.Descendants(func(n Node) bool { nodes = append(nodes, n); return true })
	for _, n := range nodes {
		r.values = append(r.values, n.Value())
		r.texts = append(r.texts, n.Text())
		for k := range n.NumAttrs() {
			a := n.AttrAt(k)
			v, ok := n.Attr(a.Name)
			r.attrs = append(r.attrs, fmt.Sprintf("%d %s=%q %q %v %q", n.ID(), a.Name, a.Value, v, ok, n.AttrNode(k).Value()))
		}
	}
	r.xml = string(d.AppendTo(nil))
	return r
}

// checkSealed seals d and fails unless it reads back what its builder
// held: every slot's value, each node's Value, Text and attributes, and its
// serialisation, as XML and as JSON; the block's end offsets are 2 bytes
// wide exactly when the values total under 64 KiB.
func checkSealed(t *testing.T, d *Document) {
	t.Helper()
	held := slices.Clone(d.sh.b.vals)
	before := read(d)
	d.Seal()
	if got := slices.Collect(d.Root.Slots().All); !slices.Equal(got, held) {
		t.Fatalf("sealed values differ from the builder's %d", len(held))
	}
	for s, v := range held {
		if got := d.Root.Slots().At(s); got != v {
			t.Fatalf("slot %d reads %q, the builder held %q", s, got, v)
		}
	}
	if after := read(d); !slices.Equal(after.values, before.values) || !slices.Equal(after.texts, before.texts) ||
		!slices.Equal(after.attrs, before.attrs) || after.xml != before.xml {
		t.Fatalf("sealing changed what the document reads:\n%.300s\nwant\n%.300s", after.xml, before.xml)
	}
	total := 0
	for _, v := range held {
		total += len(v)
	}
	w := 2
	if total >= 1<<16 {
		w = 4
	}
	if v := d.values(); v.wide != (w == 4) || int(v.ends) != total || len(d.vals) != total+w*len(held) {
		t.Fatalf("%d values of %d bytes: a %d-byte block, ends at %d, wide %v", len(held), total, len(d.vals), v.ends, v.wide)
	}
	wantJSON(t, d)
}

// TestValueBlockWidths: a block's end offsets widen from 2 to 4 bytes when
// the values reach 64 KiB, and both widths read back at the values'
// edges: empty values, a value ending at the last 2-byte offset, and one
// past it.
func TestValueBlockWidths(t *testing.T) {
	for _, total := range []int{0, 1, 1<<16 - 1, 1 << 16, 1<<16 + 1, 3 << 16} {
		d := NewDocument("a")
		d.Root.SetAttr("empty", "")
		d.AddText(d.Root, strings.Repeat("é", total/2)+strings.Repeat("x", total%2))
		d.AddElement(d.Root, "only").SetAttr("v", "")
		d.AddElementText(d.Root, "t", "")
		checkSealed(t, d)
	}
}

// FuzzSealedValues: for any values — empty ones, multi-byte and invalid
// UTF-8, markup — a document built around them, with elements that carry
// only attributes, reads back sealed what its builder held; with pad, its
// values total 64 KiB plus or minus a few bytes, where the block's end
// offsets switch width.
func FuzzSealedValues(f *testing.F) {
	f.Add("a\x00\x00b", int16(0), false)
	f.Add("é\x00 x\x00\xff\xfe\x00\U0001F600", int16(-1), true)
	f.Add("\x00\x00\x00", int16(0), true)
	f.Add("<&>\"'\x00]]>\x00--\x00", int16(1), true)
	f.Add("", int16(-3), true)
	f.Fuzz(func(t *testing.T, joined string, cross int16, pad bool) {
		vals := strings.Split(joined, "\x00")
		if len(vals) > 32 {
			vals = vals[:32]
		}
		checkSealed(t, buildFromValues(vals, int(cross%16), pad))
	})
}
