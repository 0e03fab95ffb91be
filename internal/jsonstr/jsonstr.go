// Package jsonstr writes JSON strings byte for byte as encoding/json does
// with HTML escaping on, its default, without reflection or allocation:
// the one JSON string escaper behind the HTTP API's annotation encoder and
// the content documents' JSON form (xmldoc.Document.AppendJSON).
package jsonstr

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// plain tells the bytes a JSON string holds as they are: ASCII but for
// the control bytes, quote, backslash, <, > and &.
var plain = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// Append appends s as a JSON string, quotes included.
func Append[S []byte | string](dst []byte, s S) []byte {
	return append(AppendContents(append(dst, '"'), s), '"')
}

// AppendContents appends what goes between the quotes of s's JSON string:
// the two-character escapes for quote, backslash, \b, \f, \n, \r and \t;
// \u00XX for the other control bytes and for <, > and &; \u2028 and \u2029
// for the two separators JavaScript treats as line ends; \ufffd for each
// byte that is not part of a valid UTF-8 sequence. Runs of bytes needing
// none of it are copied whole.
//
// Each escape depends on one byte or one rune alone, so the contents of a
// concatenation are the concatenation of the pieces' contents wherever
// one side of each seam is an ASCII byte or the first piece ends with a
// whole rune.
func AppendContents[S []byte | string](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if plain[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's worth is converted, so the conversion of a
		// byte slice stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
