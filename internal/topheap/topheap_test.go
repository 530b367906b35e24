package topheap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0): expected error")
	}
	if _, err := New(-3); err == nil {
		t.Error("New(-3): expected error")
	}
	h, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cap() != 5 || h.Len() != 0 || h.Full() {
		t.Error("fresh heap state wrong")
	}
}

func TestBudgetSemantics(t *testing.T) {
	h, _ := New(2)
	if h.Budget() != 0 {
		t.Errorf("empty heap budget = %g, want 0", h.Budget())
	}
	h.Offer(Item{0, 1, 5})
	if h.Budget() != 0 {
		t.Errorf("non-full heap budget = %g, want 0", h.Budget())
	}
	h.Offer(Item{1, 2, 3})
	if h.Budget() != 3 {
		t.Errorf("full heap budget = %g, want 3", h.Budget())
	}
	h.Offer(Item{2, 3, 10})
	if h.Budget() != 5 {
		t.Errorf("after displacement budget = %g, want 5", h.Budget())
	}
}

func TestOfferRejectsBelowMin(t *testing.T) {
	h, _ := New(2)
	h.Offer(Item{0, 1, 5})
	h.Offer(Item{0, 2, 7})
	if h.Offer(Item{9, 10, 4}) {
		t.Error("offer below min accepted")
	}
	if h.Offer(Item{9, 10, 5}) {
		t.Error("offer equal to min accepted (ties keep incumbents)")
	}
	if !h.Offer(Item{9, 10, 6}) {
		t.Error("offer above min rejected")
	}
}

func TestMinPanicsWhenEmpty(t *testing.T) {
	h, _ := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Min on empty heap did not panic")
		}
	}()
	h.Min()
}

func TestItemsSortedDescending(t *testing.T) {
	h, _ := New(4)
	h.Offer(Item{0, 1, 2})
	h.Offer(Item{1, 2, 9})
	h.Offer(Item{2, 3, 4})
	h.Offer(Item{3, 4, 7})
	items := h.Items()
	want := []float64{9, 7, 4, 2}
	for i, it := range items {
		if it.Score != want[i] {
			t.Fatalf("Items[%d].Score = %g, want %g (items %v)", i, it.Score, want[i], items)
		}
	}
	// Items must not drain the heap.
	if h.Len() != 4 {
		t.Errorf("Items() modified the heap: len %d", h.Len())
	}
}

func TestTieOrdering(t *testing.T) {
	h, _ := New(3)
	h.Offer(Item{5, 9, 1})
	h.Offer(Item{2, 4, 1})
	h.Offer(Item{2, 3, 1})
	items := h.Items()
	if items[0].Start != 2 || items[0].End != 3 || items[1].End != 4 || items[2].Start != 5 {
		t.Errorf("tie ordering wrong: %v", items)
	}
}

// Property: the heap retains exactly the top-t scores of any offer sequence.
func TestHeapMatchesSortProperty(t *testing.T) {
	f := func(scores []float64, tRaw uint8) bool {
		tcap := int(tRaw%10) + 1
		h, err := New(tcap)
		if err != nil {
			return false
		}
		clean := make([]float64, 0, len(scores))
		for _, s := range scores {
			if s != s || s < 0 { // drop NaN and negatives (scores are X² ≥ 0)
				continue
			}
			clean = append(clean, s)
		}
		for i, s := range clean {
			h.Offer(Item{Start: i, End: i + 1, Score: s})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(clean)))
		want := clean
		if len(want) > tcap {
			want = want[:tcap]
		}
		got := h.Items()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Score != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	h, _ := New(50)
	var all []float64
	for i := 0; i < 10000; i++ {
		s := rng.Float64() * 100
		all = append(all, s)
		h.Offer(Item{Start: i, End: i + 1, Score: s})
		// Invariant: heap min is the t-th largest seen so far once full.
		if h.Full() && i%997 == 0 {
			sorted := append([]float64(nil), all...)
			sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
			if h.Budget() != sorted[49] {
				t.Fatalf("at %d: budget %g, want %g", i, h.Budget(), sorted[49])
			}
		}
	}
}

// TestItemsLargeHeap: a top-t request's t comes from outside the program, so
// Items can face hundreds of thousands of held items. It must return exactly
// the order a stable sort on lessDesc gives, score ties included, and in
// O(t log t) time: the bound is generous for a sort of 3×10⁵ items and far
// below what a quadratic sort needs.
func TestItemsLargeHeap(t *testing.T) {
	const size = 300_000
	rng := rand.New(rand.NewSource(17))
	h, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Item, 0, size)
	for i := 0; i < size; i++ {
		start := rng.Intn(size)
		// 2000 distinct scores over 3×10⁵ items: ties everywhere.
		it := Item{Start: start, End: start + 1 + rng.Intn(64), Score: float64(rng.Intn(2000)) / 8}
		h.Offer(it)
		want = append(want, it)
	}
	sort.SliceStable(want, func(a, b int) bool { return lessDesc(want[a], want[b]) })
	begin := time.Now()
	got := h.Items()
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Errorf("Items on %d items took %v", size, elapsed)
	}
	if !slices.Equal(got, want) {
		t.Fatal("Items order differs from a stable sort on lessDesc")
	}
}
