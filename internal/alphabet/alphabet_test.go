package alphabet

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewModelValid(t *testing.T) {
	cases := [][]float64{
		{0.5, 0.5},
		{0.1, 0.9},
		{0.2, 0.3, 0.5},
		{0.25, 0.25, 0.25, 0.25},
		{0.05, 0.1, 0.15, 0.2, 0.5},
	}
	for _, probs := range cases {
		m, err := NewModel(probs)
		if err != nil {
			t.Errorf("NewModel(%v): unexpected error %v", probs, err)
			continue
		}
		if m.K() != len(probs) {
			t.Errorf("NewModel(%v): K=%d, want %d", probs, m.K(), len(probs))
		}
		sum := 0.0
		for i := range probs {
			if math.Abs(m.Prob(i)-probs[i]) > 1e-12 {
				t.Errorf("NewModel(%v): Prob(%d)=%g, want %g", probs, i, m.Prob(i), probs[i])
			}
			sum += m.Prob(i)
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Errorf("NewModel(%v): probabilities sum to %g after normalization", probs, sum)
		}
	}
}

func TestNewModelInvalid(t *testing.T) {
	cases := []struct {
		name  string
		probs []float64
	}{
		{"empty", nil},
		{"single", []float64{1.0}},
		{"zero prob", []float64{0, 1}},
		{"negative", []float64{-0.1, 1.1}},
		{"prob one", []float64{1, 0.5}},
		{"sum below one", []float64{0.3, 0.3}},
		{"sum above one", []float64{0.7, 0.7}},
		{"nan", []float64{math.NaN(), 0.5}},
		{"inf", []float64{math.Inf(1), 0.5}},
		{"subnormal", []float64{5e-324, 0.9999999999999999}},
		{"1/p finite, Y²/p not", []float64{1e-306, 0.5, 0.5}},
		{"just below the floor", []float64{ProbFloor * 0.5, 0.5, 0.5}},
	}
	for _, c := range cases {
		if _, err := NewModel(c.probs); err == nil {
			t.Errorf("NewModel(%s %v): expected error", c.name, c.probs)
		}
	}
}

// TestProbFloorKeepsSumsFinite: at the floor, the largest sum a scan can
// form — every one of 2³¹−1 symbols the rarest — and the products the
// guard band and skip quadratic take of it stay finite.
func TestProbFloorKeepsSumsFinite(t *testing.T) {
	m, err := NewModel([]float64{ProbFloor, 0.5, 0.5})
	if err != nil {
		t.Fatalf("a probability at the floor must be accepted: %v", err)
	}
	y := float64(math.MaxInt32)
	s := y * y / m.Probs()[0]
	for _, v := range []float64{s, 1 / m.Probs()[0], s + 0x1p-38*(s+y*y+y), 4 * s * y} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("sum %v or a product of it is not finite", s)
		}
	}
}

func TestNewModelTooLarge(t *testing.T) {
	probs := make([]float64, MaxK+1)
	for i := range probs {
		probs[i] = 1 / float64(len(probs))
	}
	if _, err := NewModel(probs); err == nil {
		t.Error("NewModel with k > MaxK: expected error")
	}
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustModel with invalid probs did not panic")
		}
	}()
	MustModel([]float64{0.1, 0.1})
}

func TestUniform(t *testing.T) {
	for _, k := range []int{2, 3, 5, 10, 26} {
		m, err := Uniform(k)
		if err != nil {
			t.Fatalf("Uniform(%d): %v", k, err)
		}
		for i := 0; i < k; i++ {
			if math.Abs(m.Prob(i)-1/float64(k)) > 1e-15 {
				t.Errorf("Uniform(%d).Prob(%d) = %g", k, i, m.Prob(i))
			}
		}
	}
	if _, err := Uniform(1); err == nil {
		t.Error("Uniform(1): expected error")
	}
	if _, err := Uniform(0); err == nil {
		t.Error("Uniform(0): expected error")
	}
	if _, err := Uniform(MaxK + 1); err == nil {
		t.Error("Uniform(MaxK+1): expected error")
	}
}

func TestMLE(t *testing.T) {
	s := []byte{0, 0, 0, 1, 1, 0, 0, 0, 1, 0} // 7 zeros, 3 ones
	m, err := MLE(s, 2)
	if err != nil {
		t.Fatalf("MLE: %v", err)
	}
	if math.Abs(m.Prob(0)-0.7) > 1e-12 || math.Abs(m.Prob(1)-0.3) > 1e-12 {
		t.Errorf("MLE = %v, want {0.7, 0.3}", m)
	}
}

func TestMLESmoothing(t *testing.T) {
	// Symbol 2 never occurs; MLE must smooth rather than emit a zero prob.
	s := []byte{0, 1, 0, 1}
	m, err := MLE(s, 3)
	if err != nil {
		t.Fatalf("MLE with absent symbol: %v", err)
	}
	if m.Prob(2) <= 0 {
		t.Errorf("MLE smoothing failed: Prob(2) = %g", m.Prob(2))
	}
	// Laplace: (0+1)/(4+3) = 1/7.
	if math.Abs(m.Prob(2)-1.0/7.0) > 1e-12 {
		t.Errorf("MLE smoothed Prob(2) = %g, want %g", m.Prob(2), 1.0/7.0)
	}
}

func TestMLEErrors(t *testing.T) {
	if _, err := MLE(nil, 2); err == nil {
		t.Error("MLE(empty): expected error")
	}
	if _, err := MLE([]byte{0, 5}, 2); err == nil {
		t.Error("MLE(out-of-range symbol): expected error")
	}
}

func TestMinProbEntropy(t *testing.T) {
	m := MustModel([]float64{0.1, 0.2, 0.7})
	if m.MinProb() != 0.1 {
		t.Errorf("MinProb = %g, want 0.1", m.MinProb())
	}
	u := MustUniform(4)
	if math.Abs(u.Entropy()-math.Log(4)) > 1e-12 {
		t.Errorf("uniform entropy = %g, want ln 4 = %g", u.Entropy(), math.Log(4))
	}
	// Entropy of a skewed model is below the uniform maximum.
	sk := MustModel([]float64{0.97, 0.01, 0.01, 0.01})
	if sk.Entropy() >= u.Entropy() {
		t.Errorf("skewed entropy %g not below uniform %g", sk.Entropy(), u.Entropy())
	}
}

func TestEqual(t *testing.T) {
	a := MustModel([]float64{0.5, 0.5})
	b := MustModel([]float64{0.5, 0.5})
	c := MustModel([]float64{0.4, 0.6})
	d := MustUniform(3)
	if !a.Equal(b, 1e-12) {
		t.Error("identical models not Equal")
	}
	if a.Equal(c, 1e-12) {
		t.Error("different models Equal")
	}
	if a.Equal(d, 1e-12) {
		t.Error("models of different size Equal")
	}
}

func TestCopyProbsIsPrivate(t *testing.T) {
	m := MustUniform(2)
	cp := m.CopyProbs()
	cp[0] = 99
	if m.Prob(0) == 99 {
		t.Error("CopyProbs shares storage with the model")
	}
}

func TestString(t *testing.T) {
	m := MustModel([]float64{0.25, 0.75})
	s := m.String()
	if !strings.Contains(s, "0.25") || !strings.Contains(s, "0.75") {
		t.Errorf("String() = %q", s)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]byte{0, 1, 2}, 3); err != nil {
		t.Errorf("Validate valid string: %v", err)
	}
	if err := Validate([]byte{0, 3}, 3); err == nil {
		t.Error("Validate out-of-range: expected error")
	}
	if err := Validate(nil, 1); err == nil {
		t.Error("Validate k=1: expected error")
	}
	if err := Validate(nil, MaxK+5); err == nil {
		t.Error("Validate k too large: expected error")
	}
}

func TestEncoderRoundTrip(t *testing.T) {
	e, err := NewEncoder("WLWWLW")
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	if e.K() != 2 {
		t.Fatalf("K = %d, want 2", e.K())
	}
	syms, err := e.Encode("WLLW")
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := []byte{0, 1, 1, 0} // W first seen → 0, L → 1
	for i := range want {
		if syms[i] != want[i] {
			t.Fatalf("Encode = %v, want %v", syms, want)
		}
	}
	text, err := e.Decode(syms)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if text != "WLLW" {
		t.Errorf("Decode = %q, want WLLW", text)
	}
}

func TestEncoderErrors(t *testing.T) {
	if _, err := NewEncoder("AAAA"); err == nil {
		t.Error("NewEncoder single-symbol sample: expected error")
	}
	e, _ := NewEncoder("AB")
	if _, err := e.Encode("ABC"); err == nil {
		t.Error("Encode unknown character: expected error")
	}
	if _, err := e.Decode([]byte{7}); err == nil {
		t.Error("Decode out-of-range symbol: expected error")
	}
}

func TestEncoderSorted(t *testing.T) {
	e, err := NewEncoderSorted("ZYA")
	if err != nil {
		t.Fatalf("NewEncoderSorted: %v", err)
	}
	if e.Rune(0) != 'A' || e.Rune(1) != 'Y' || e.Rune(2) != 'Z' {
		t.Errorf("sorted alphabet = %c %c %c", e.Rune(0), e.Rune(1), e.Rune(2))
	}
	if _, err := NewEncoderSorted("XX"); err == nil {
		t.Error("NewEncoderSorted single-symbol: expected error")
	}
}

func TestEncoderInvalidUTF8(t *testing.T) {
	// Constructors reject invalid samples: folding the bad byte to U+FFFD
	// would silently build an alphabet the input never contained.
	for _, sample := range []string{"\xff\xfe", "a\x80b", "\xc3("} {
		if _, err := NewEncoder(sample); err == nil {
			t.Errorf("NewEncoder(%q): expected invalid-UTF-8 error", sample)
		}
		if _, err := NewEncoderSorted(sample); err == nil {
			t.Errorf("NewEncoderSorted(%q): expected invalid-UTF-8 error", sample)
		}
	}
	// Encode rejects invalid text even when every valid rune is in-alphabet.
	e, err := NewEncoder("ab")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"\xff", "a\x80b", "ab\xc3"} {
		if _, err := e.Encode(text); err == nil {
			t.Errorf("Encode(%q): expected invalid-UTF-8 error", text)
		}
	}
	// A literal U+FFFD is valid UTF-8 and round-trips exactly.
	e2, err := NewEncoder("�x")
	if err != nil {
		t.Fatalf("NewEncoder with literal U+FFFD: %v", err)
	}
	syms, err := e2.Encode("x��x")
	if err != nil {
		t.Fatalf("Encode literal U+FFFD: %v", err)
	}
	back, err := e2.Decode(syms)
	if err != nil || back != "x��x" {
		t.Errorf("round trip = %q, err %v", back, err)
	}
}

// TestEncoderRejectsOversizedSampleEarly: both constructors stop at the
// (MaxK+1)th distinct character instead of collecting every distinct rune
// first. On 1 MiB of distinct 4-byte runes, collecting them all allocated
// 15 MB before the sample was rejected. An invalid byte anywhere in the
// sample still takes precedence.
func TestEncoderRejectsOversizedSampleEarly(t *testing.T) {
	var b strings.Builder
	for r := rune(0x10000); b.Len() < 1<<20; r++ {
		b.WriteRune(r)
	}
	sample := b.String()
	for _, c := range []struct {
		name  string
		build func(string) (*Encoder, error)
	}{{"NewEncoder", NewEncoder}, {"NewEncoderSorted", NewEncoderSorted}} {
		var err error
		allocated := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err = c.build(sample)
			runtime.ReadMemStats(&m1)
			allocated = min(allocated, m1.TotalAlloc-m0.TotalAlloc)
		}
		if want := "alphabet: more than 256 distinct characters in sample"; errText(err) != want {
			t.Errorf("%s: error %q, want %q", c.name, errText(err), want)
		}
		if allocated > 64<<10 {
			t.Errorf("%s: allocated %d bytes rejecting the sample, want at most %d", c.name, allocated, 64<<10)
		}
		_, err = c.build(sample + "\xff")
		if want := fmt.Sprintf("alphabet: alphabet sample is not valid UTF-8 at byte %d (0xff)", len(sample)); errText(err) != want {
			t.Errorf("%s with a trailing invalid byte: error %q, want %q", c.name, errText(err), want)
		}
	}
}

func TestEncoderAlphabet(t *testing.T) {
	e, err := NewEncoder("banana")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Alphabet(); got != "ban" {
		t.Fatalf("Alphabet() = %q, want %q", got, "ban")
	}
	// Reconstructing from the alphabet string yields the identical mapping.
	e2, err := NewEncoder(e.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.K(); i++ {
		if e.Rune(i) != e2.Rune(i) {
			t.Fatalf("symbol %d: %q vs %q", i, e.Rune(i), e2.Rune(i))
		}
	}
}

func TestEncoderUnicode(t *testing.T) {
	e, err := NewEncoder("↑↓→")
	if err != nil {
		t.Fatalf("NewEncoder unicode: %v", err)
	}
	syms, err := e.Encode("↓↓↑→")
	if err != nil {
		t.Fatalf("Encode unicode: %v", err)
	}
	back, err := e.Decode(syms)
	if err != nil || back != "↓↓↑→" {
		t.Errorf("round trip = %q, err %v", back, err)
	}
}

// Property: MLE probabilities always form a valid model summing to 1 for any
// nonempty symbol string.
func TestMLEProperty(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%9) + 2 // 2..10
		if len(raw) == 0 {
			return true
		}
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b % byte(k)
		}
		m, err := MLE(s, k)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < m.K(); i++ {
			if m.Prob(i) <= 0 {
				return false
			}
			sum += m.Prob(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
