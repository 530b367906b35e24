package alphabet

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// refEncoder is the rune-by-rune codec the table-driven Encoder replaced,
// kept as the differential oracle: one rune-map lookup per character, and
// alphabet discovery that collects every distinct rune before it checks
// MaxK.
type refEncoder struct {
	toSymbol map[rune]byte
	toRune   []rune
}

func refInvalidUTF8(kind, s string) error {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size <= 1 {
			return fmt.Errorf("alphabet: %s is not valid UTF-8 at byte %d (0x%02x)", kind, i, s[i])
		}
		i += size
	}
	return fmt.Errorf("alphabet: %s is not valid UTF-8", kind)
}

func refNewEncoder(sample string) (*refEncoder, error) {
	if !utf8.ValidString(sample) {
		return nil, refInvalidUTF8("alphabet sample", sample)
	}
	e := &refEncoder{toSymbol: make(map[rune]byte)}
	for _, r := range sample {
		if _, ok := e.toSymbol[r]; ok {
			continue
		}
		if len(e.toRune) >= MaxK {
			return nil, fmt.Errorf("alphabet: more than %d distinct characters in sample", MaxK)
		}
		e.toSymbol[r] = byte(len(e.toRune))
		e.toRune = append(e.toRune, r)
	}
	if len(e.toRune) < 2 {
		return nil, fmt.Errorf("alphabet: sample has %d distinct characters, need at least 2", len(e.toRune))
	}
	return e, nil
}

func refNewEncoderSorted(sample string) (*refEncoder, error) {
	if !utf8.ValidString(sample) {
		return nil, refInvalidUTF8("alphabet sample", sample)
	}
	seen := make(map[rune]bool)
	var runes []rune
	for _, r := range sample {
		if !seen[r] {
			seen[r] = true
			runes = append(runes, r)
		}
	}
	if len(runes) < 2 {
		return nil, fmt.Errorf("alphabet: sample has %d distinct characters, need at least 2", len(runes))
	}
	if len(runes) > MaxK {
		return nil, fmt.Errorf("alphabet: more than %d distinct characters in sample", MaxK)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	e := &refEncoder{toSymbol: make(map[rune]byte, len(runes)), toRune: runes}
	for i, r := range runes {
		e.toSymbol[r] = byte(i)
	}
	return e, nil
}

func (e *refEncoder) Encode(text string) ([]byte, error) {
	out := make([]byte, 0, len(text))
	for i := 0; i < len(text); {
		r, size := utf8.DecodeRuneInString(text[i:])
		if r == utf8.RuneError && size <= 1 {
			return nil, fmt.Errorf("alphabet: text is not valid UTF-8 at byte %d (0x%02x)", i, text[i])
		}
		sym, ok := e.toSymbol[r]
		if !ok {
			return nil, fmt.Errorf("alphabet: character %q at byte %d not in alphabet", r, i)
		}
		out = append(out, sym)
		i += size
	}
	return out, nil
}

func (e *refEncoder) Decode(s []byte) (string, error) {
	var b strings.Builder
	for i, c := range s {
		if int(c) >= len(e.toRune) {
			return "", fmt.Errorf("alphabet: symbol %d at position %d out of range", c, i)
		}
		b.WriteRune(e.toRune[c])
	}
	return b.String(), nil
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// manyRunes returns n distinct characters: n−len(ascii) runes from U+0100
// upward, then ascii, so the ASCII characters take the highest symbols of a
// first-appearance alphabet.
func manyRunes(n int, ascii string) string {
	var b strings.Builder
	for r := rune(0x100); r < rune(0x100+n-len(ascii)); r++ {
		b.WriteRune(r)
	}
	b.WriteString(ascii)
	return b.String()
}

// FuzzEncoderTable checks the table-driven codec against refEncoder: both
// constructors give the same alphabet or the same error, and Encode and
// Decode give the same symbols or text, or the same error with the same
// byte offset or position.
func FuzzEncoderTable(f *testing.F) {
	f.Add("ACGT日本", "GA日TC本A", []byte{0, 1, 4, 5, 3})
	f.Add("ACGT", "ACG\xffT", []byte{3, 2, 1, 0})     // invalid byte after an ASCII prefix
	f.Add("Aé", "éAB", []byte{1, 0, 2})               // out-of-alphabet ASCII byte after a multi-byte character
	f.Add("aé", "aaé\xc3", []byte{0, 1})              // truncated multi-byte character at the end
	f.Add("01", "0110\x00", []byte{0, 1, 255})        // NUL is ASCII but not in the alphabet
	f.Add("\x7fé", "\x7f\u0080é", []byte{1, 0})       // the last ASCII byte and the first non-ASCII rune
	f.Add("ab", "a�b", []byte{})                      // literal U+FFFD, valid but absent
	f.Add(manyRunes(256, "a"), "aĀa", []byte{255, 0}) // ASCII at symbol 255
	f.Add(manyRunes(257, "ab"), "ab", []byte{0})      // one character too many
	f.Add(manyRunes(300, "")+"\xff", "", []byte{})    // too many, and invalid UTF-8 later
	f.Fuzz(func(t *testing.T, sample, text string, syms []byte) {
		for _, c := range []struct {
			name string
			got  func(string) (*Encoder, error)
			want func(string) (*refEncoder, error)
		}{
			{"NewEncoder", NewEncoder, refNewEncoder},
			{"NewEncoderSorted", NewEncoderSorted, refNewEncoderSorted},
		} {
			e, err := c.got(sample)
			r, rerr := c.want(sample)
			if errText(err) != errText(rerr) {
				t.Fatalf("%s(%q): error %q, reference %q", c.name, sample, errText(err), errText(rerr))
			}
			if err != nil {
				continue
			}
			if e.Alphabet() != string(r.toRune) || e.K() != len(r.toRune) {
				t.Fatalf("%s(%q): alphabet %q, reference %q", c.name, sample, e.Alphabet(), string(r.toRune))
			}
			got, err := e.Encode(text)
			want, rerr := r.Encode(text)
			if errText(err) != errText(rerr) || !bytes.Equal(got, want) {
				t.Fatalf("%s(%q).Encode(%q) = %v, %q; reference %v, %q", c.name, sample, text, got, errText(err), want, errText(rerr))
			}
			dec, err := e.Decode(syms)
			wantDec, rerr := r.Decode(syms)
			if errText(err) != errText(rerr) || dec != wantDec {
				t.Fatalf("%s(%q).Decode(%v) = %q, %q; reference %q, %q", c.name, sample, syms, dec, errText(err), wantDec, errText(rerr))
			}
		}
	})
}
