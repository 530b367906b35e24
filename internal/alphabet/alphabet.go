// Package alphabet defines the multinomial symbol model (Σ, P) that every
// scanner in this repository works against: a finite alphabet of k symbols
// together with a fixed probability of occurrence for each symbol (the
// memoryless Bernoulli null model of Sachan & Bhattacharya, VLDB 2012).
//
// Strings are represented as []byte of symbol indices in [0, k). The package
// provides construction and validation of models, maximum-likelihood
// estimation from observed data, and helpers for mapping text to symbol
// indices and back.
package alphabet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// MaxK is the largest supported alphabet size. Symbol indices are stored in
// a byte, so alphabets are limited to 256 symbols; the paper treats k as a
// small constant (k ≤ 10 in all experiments).
const MaxK = 256

// ProbFloor is the smallest symbol probability NewModel accepts. Every
// statistic the scanners compute is built from S = Σ Y_c²/p_c over the
// counts Y_c of a window, and counts stay below 2³¹ (the corpus length
// cap), so S ≤ (Σ Y_c)²/min p < 2⁶²/min p. At min p ≥ 2⁻⁸⁹⁰ that keeps S
// below 2⁹⁵², which leaves a factor of 2⁷² under the float64 maximum
// (≈ 2¹⁰²⁴) for the guard bands, the skip quadratic's products and 1/p
// itself — so X², and every bound the scans derive from it, stays finite
// at any admissible length. 2⁻⁸⁹⁰ ≈ 1.3·10⁻²⁶⁸.
const ProbFloor = 0x1p-890

// probSumTolerance is how far Σp_i may stray from 1 before NewModel rejects
// the distribution instead of renormalizing it.
const probSumTolerance = 1e-9

// Model is a validated multinomial distribution over an alphabet of k
// symbols. The zero value is not usable; construct models with NewModel,
// Uniform, or MLE.
type Model struct {
	probs []float64
}

// NewModel validates probs and returns the model. Each probability must lie
// in [ProbFloor, 1), and the probabilities must sum
// to 1 within a small tolerance (they are renormalized exactly afterwards so
// downstream arithmetic sees Σp_i = 1).
func NewModel(probs []float64) (*Model, error) {
	k := len(probs)
	if k < 2 {
		return nil, fmt.Errorf("alphabet: need at least 2 symbols, got %d", k)
	}
	if k > MaxK {
		return nil, fmt.Errorf("alphabet: alphabet size %d exceeds maximum %d", k, MaxK)
	}
	sum := 0.0
	for i, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("alphabet: probability of symbol %d is not finite", i)
		}
		if p <= 0 {
			return nil, fmt.Errorf("alphabet: probability of symbol %d must be positive, got %g", i, p)
		}
		if p >= 1 {
			return nil, fmt.Errorf("alphabet: probability of symbol %d must be < 1, got %g", i, p)
		}
		if p < ProbFloor {
			return nil, fmt.Errorf("alphabet: probability of symbol %d is %g, below the minimum %g", i, p, ProbFloor)
		}
		sum += p
	}
	if math.Abs(sum-1) > probSumTolerance {
		return nil, fmt.Errorf("alphabet: probabilities sum to %g, want 1", sum)
	}
	cp := make([]float64, k)
	for i, p := range probs {
		cp[i] = p / sum
	}
	return &Model{probs: cp}, nil
}

// MustModel is NewModel that panics on error; intended for tests and
// package-level literals with known-good distributions.
func MustModel(probs []float64) *Model {
	m, err := NewModel(probs)
	if err != nil {
		panic(err)
	}
	return m
}

// Uniform returns the uniform model over k symbols (the paper's default
// null model).
func Uniform(k int) (*Model, error) {
	if k < 2 {
		return nil, fmt.Errorf("alphabet: need at least 2 symbols, got %d", k)
	}
	if k > MaxK {
		return nil, fmt.Errorf("alphabet: alphabet size %d exceeds maximum %d", k, MaxK)
	}
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1 / float64(k)
	}
	return &Model{probs: probs}, nil
}

// MustUniform is Uniform that panics on error.
func MustUniform(k int) *Model {
	m, err := Uniform(k)
	if err != nil {
		panic(err)
	}
	return m
}

// MLE returns the maximum-likelihood model estimated from an observed symbol
// string: p_i = count_i / n. This is how the paper derives the fixed
// probability for real datasets (e.g. the ratio of up-days to trading days).
// Symbols that never occur would produce a zero probability, which the
// chi-square statistic cannot accommodate, so MLE applies add-one (Laplace)
// smoothing when any symbol of the alphabet is absent from s.
func MLE(s []byte, k int) (*Model, error) {
	if err := Validate(s, k); err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, errors.New("alphabet: cannot estimate a model from an empty string")
	}
	counts := make([]int, k)
	for _, c := range s {
		counts[c]++
	}
	smooth := false
	for _, c := range counts {
		if c == 0 {
			smooth = true
			break
		}
	}
	probs := make([]float64, k)
	if smooth {
		total := float64(len(s) + k)
		for i, c := range counts {
			probs[i] = (float64(c) + 1) / total
		}
	} else {
		total := float64(len(s))
		for i, c := range counts {
			probs[i] = float64(c) / total
		}
	}
	return NewModel(probs)
}

// K returns the alphabet size.
func (m *Model) K() int { return len(m.probs) }

// Prob returns the probability of symbol i.
func (m *Model) Prob(i int) float64 { return m.probs[i] }

// Probs returns the probability vector. The returned slice is shared with
// the model and must not be modified; callers needing a private copy should
// use CopyProbs.
func (m *Model) Probs() []float64 { return m.probs }

// CopyProbs returns a fresh copy of the probability vector.
func (m *Model) CopyProbs() []float64 {
	cp := make([]float64, len(m.probs))
	copy(cp, m.probs)
	return cp
}

// MinProb returns the smallest symbol probability.
func (m *Model) MinProb() float64 {
	min := m.probs[0]
	for _, p := range m.probs[1:] {
		if p < min {
			min = p
		}
	}
	return min
}

// Entropy returns the Shannon entropy of the model in nats.
func (m *Model) Entropy() float64 {
	h := 0.0
	for _, p := range m.probs {
		h -= p * math.Log(p)
	}
	return h
}

// Equal reports whether two models have identical size and probabilities
// within tol.
func (m *Model) Equal(other *Model, tol float64) bool {
	if m.K() != other.K() {
		return false
	}
	for i, p := range m.probs {
		if math.Abs(p-other.probs[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the model as {p_0, p_1, ...} with short decimal forms.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range m.probs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", p)
	}
	b.WriteByte('}')
	return b.String()
}

// Validate checks that every symbol of s lies in [0, k).
func Validate(s []byte, k int) error {
	if k < 2 || k > MaxK {
		return fmt.Errorf("alphabet: invalid alphabet size %d", k)
	}
	for i, c := range s {
		if int(c) >= k {
			return fmt.Errorf("alphabet: symbol %d at position %d out of range [0, %d)", c, i, k)
		}
	}
	return nil
}

// Encoder maps text characters to symbol indices. It is used by the CLI
// tools and examples to turn human-readable strings (e.g. "WLWWL" or
// "0110100") into symbol strings.
//
// ASCII characters translate through a 128-entry table; only characters of
// U+0080 and above go through the rune map.
type Encoder struct {
	ascii    [utf8.RuneSelf]uint16 // symbol+1 of each ASCII character of the alphabet, 0 for the rest
	toSymbol map[rune]byte         // characters of U+0080 and above
	toRune   []rune
}

// invalidUTF8 locates the first invalid byte of s, for error reporting.
// Callers have already established that s is not valid UTF-8.
func invalidUTF8(kind, s string) error {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size <= 1 {
			return fmt.Errorf("alphabet: %s is not valid UTF-8 at byte %d (0x%02x)", kind, i, s[i])
		}
		i += size
	}
	return fmt.Errorf("alphabet: %s is not valid UTF-8", kind)
}

// distinctRunes returns the distinct runes of sample in first-appearance
// order. The sample must be valid UTF-8 and hold 2 to MaxK distinct runes;
// the scan stops at the (MaxK+1)th, so rejecting an oversized sample costs
// at most MaxK+1 map entries.
func distinctRunes(sample string) ([]rune, error) {
	if !utf8.ValidString(sample) {
		return nil, invalidUTF8("alphabet sample", sample)
	}
	var ascii [utf8.RuneSelf]bool
	var other map[rune]bool
	var runes []rune
	for i := 0; i < len(sample); {
		r := rune(sample[i])
		if r < utf8.RuneSelf {
			i++
			if ascii[r] {
				continue
			}
			ascii[r] = true
		} else {
			var size int
			r, size = utf8.DecodeRuneInString(sample[i:])
			i += size
			if other[r] {
				continue
			}
			if other == nil {
				other = make(map[rune]bool)
			}
			other[r] = true
		}
		if len(runes) == MaxK {
			return nil, fmt.Errorf("alphabet: more than %d distinct characters in sample", MaxK)
		}
		runes = append(runes, r)
	}
	if len(runes) < 2 {
		return nil, fmt.Errorf("alphabet: sample has %d distinct characters, need at least 2", len(runes))
	}
	return runes, nil
}

// newEncoder numbers runes in the given order.
func newEncoder(runes []rune) *Encoder {
	e := &Encoder{toRune: runes}
	for i, r := range runes {
		if r < utf8.RuneSelf {
			e.ascii[r] = uint16(i) + 1
			continue
		}
		if e.toSymbol == nil {
			e.toSymbol = make(map[rune]byte)
		}
		e.toSymbol[r] = byte(i)
	}
	return e
}

// NewEncoder builds an encoder whose alphabet is the set of distinct runes
// of sample in first-appearance order. At least two distinct runes are
// required, and the sample must be valid UTF-8: silently folding invalid
// bytes to U+FFFD (what Go string iteration does) would make Decode∘Encode
// canonicalize instead of round-trip, so invalid input is an error.
func NewEncoder(sample string) (*Encoder, error) {
	runes, err := distinctRunes(sample)
	if err != nil {
		return nil, err
	}
	return newEncoder(runes), nil
}

// NewEncoderSorted is NewEncoder but with the alphabet in sorted rune order,
// so that the symbol numbering does not depend on first appearance. Like
// NewEncoder it rejects samples that are not valid UTF-8.
func NewEncoderSorted(sample string) (*Encoder, error) {
	runes, err := distinctRunes(sample)
	if err != nil {
		return nil, err
	}
	slices.Sort(runes)
	return newEncoder(runes), nil
}

// K returns the encoder's alphabet size.
func (e *Encoder) K() int { return len(e.toRune) }

// Encode converts text to symbol indices. Characters outside the encoder's
// alphabet produce an error, as does text that is not valid UTF-8 — the
// invalid bytes would otherwise fold to U+FFFD and decode to a different
// string than was encoded, silently corrupting round-trips.
func (e *Encoder) Encode(text string) ([]byte, error) {
	out := make([]byte, 0, len(text))
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			sym := e.ascii[c]
			if sym == 0 {
				return nil, fmt.Errorf("alphabet: character %q at byte %d not in alphabet", rune(c), i)
			}
			out = append(out, byte(sym-1))
			i++
			continue
		}
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

// Decode converts symbol indices back to text. The builder is sized for
// one byte per symbol, what an ASCII alphabet takes.
func (e *Encoder) Decode(s []byte) (string, error) {
	var b strings.Builder
	b.Grow(len(s))
	for i, c := range s {
		if int(c) >= len(e.toRune) {
			return "", fmt.Errorf("alphabet: symbol %d at position %d out of range", c, i)
		}
		b.WriteRune(e.toRune[c])
	}
	return b.String(), nil
}

// Rune returns the rune for symbol i.
func (e *Encoder) Rune(i int) rune { return e.toRune[i] }

// Alphabet returns the encoder's runes in symbol order as one string.
// Feeding it back to NewEncoder reconstructs an identical encoder, which is
// how snapshots persist a codec.
func (e *Encoder) Alphabet() string { return string(e.toRune) }
