package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAppendMatchesEncodingJSON: every byte alone, the escapes' edge runes
// and invalid sequences are written as encoding/json writes them.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain text", `<>&"'\`, "\xe2\x80\xa8\xe2\x80\xa9", "\xef\xbf\xbd",
		"\xff\xfe", "\xc3", "\xe2\x82", "\xf0\x9f\x98", "\xed\xa0\x80", "\xc0\xaf", "é😀", "a\x00b\x1f\x7f"}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("Append(%q) = %q, want %q", s, got[len("prefix"):], want)
		}
		if got := Append(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("Append([]byte(%q)) = %q, want %q", s, got, want)
		}
	}
}
