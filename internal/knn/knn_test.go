package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/descriptor"
)

func TestHeapKeepsBestK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHeap(10)
		d2s := make([]float64, 100)
		for i := range d2s {
			d2s[i] = r.Float64() * 100
			h.OfferSquared(descriptor.ID(i), d2s[i])
		}
		sort.Float64s(d2s)
		// Bounds are read before Sorted: sorting hands the storage to the
		// reporting boundary and invalidates the heap order.
		if h.Kth2() != d2s[9] || h.Kth() != math.Sqrt(d2s[9]) {
			return false
		}
		got := h.Sorted()
		if len(got) != 10 {
			return false
		}
		for i := range got {
			if got[i].Dist != math.Sqrt(d2s[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapUnderfull(t *testing.T) {
	h := NewHeap(5)
	if !math.IsInf(h.Kth2(), 1) || !math.IsInf(h.Kth(), 1) {
		t.Fatal("empty heap bound should be +Inf")
	}
	h.OfferSquared(1, 9)
	h.OfferSquared(2, 1)
	if !math.IsInf(h.Kth2(), 1) {
		t.Fatal("underfull heap Kth2 should be +Inf")
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	got := h.Sorted()
	if got[0].Dist != 1 || got[1].Dist != 3 {
		t.Fatalf("Sorted = %v", got)
	}
}

func TestHeapRejectsWorse(t *testing.T) {
	h := NewHeap(2)
	h.OfferSquared(1, 1)
	h.OfferSquared(2, 4)
	h.OfferSquared(3, 25) // worse than both
	got := h.Sorted()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Sorted = %v", got)
	}
}

// TestHeapTieBreakByID pins the deterministic tie rule: among
// equal-distance candidates the smallest IDs are retained, and the sorted
// output orders equal distances by ascending ID — regardless of offer
// order.
func TestHeapTieBreakByID(t *testing.T) {
	ids := []descriptor.ID{7, 3, 9, 1, 5, 8, 2}
	perms := [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 2, 5, 1, 4}}
	for _, perm := range perms {
		h := NewHeap(3)
		for _, p := range perm {
			h.OfferSquared(ids[p], 4)
		}
		if h.Kth2() != 4 {
			t.Fatalf("Kth2 = %v", h.Kth2())
		}
		got := h.Sorted()
		if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
			t.Fatalf("perm %v: Sorted = %v, want IDs 1,2,3", perm, got)
		}
	}
}

func TestHeapResetReuses(t *testing.T) {
	h := NewHeap(4)
	for i := 0; i < 10; i++ {
		h.OfferSquared(descriptor.ID(i), float64(10-i))
	}
	h.Reset(2)
	if h.Len() != 0 || h.K() != 2 {
		t.Fatalf("after Reset: Len=%d K=%d", h.Len(), h.K())
	}
	h.OfferSquared(1, 4)
	h.OfferSquared(2, 1)
	h.OfferSquared(3, 9)
	got := h.Sorted()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("Sorted after Reset = %v", got)
	}
}

func TestSortedIntoNoAlloc(t *testing.T) {
	h := NewHeap(8)
	for i := 0; i < 50; i++ {
		h.OfferSquared(descriptor.ID(i), float64((i*37)%100))
	}
	buf := make([]Neighbor, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = h.SortedInto(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("SortedInto allocated %v times per run", allocs)
	}
	if len(buf) != 8 {
		t.Fatalf("len = %d", len(buf))
	}
}

func TestAppendAll(t *testing.T) {
	h := NewHeap(3)
	h.OfferSquared(1, 1)
	h.OfferSquared(2, 4)
	buf := make([]Neighbor, 0, 4)
	buf = h.AppendAll(buf)
	if len(buf) != 2 {
		t.Fatalf("AppendAll len = %d", len(buf))
	}
}

// OfferSquaredAll must leave the heap exactly as the same sequence of
// OfferSquared calls would — internal layout included, since later offers
// sift through it. Streams are drawn from a handful of distinct distances
// (NaN and +Inf among them), so the k-th distance keeps recurring at ids
// below and above the one the heap holds; they arrive in slices of random
// length, so the heap fills in the middle of one; k runs from 0 past the
// stream's length.
func TestOfferSquaredAllMatchesOfferSquared(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		k := r.Intn(n + 8)
		if r.Intn(6) == 0 {
			k = 0
		}
		values := []float64{math.NaN(), math.Inf(1), 0}
		for len(values) < 4+r.Intn(12) {
			values = append(values, float64(r.Intn(50)))
		}
		ids, d2s := make([]descriptor.ID, n), make([]float64, n)
		for i := range ids {
			ids[i], d2s[i] = descriptor.ID(r.Intn(64)), values[r.Intn(len(values))]
		}
		one, all := NewHeap(k), NewHeap(k)
		for lo := 0; lo < n; {
			hi := min(n, lo+r.Intn(40)) // sometimes empty
			for i := lo; i < hi; i++ {
				one.OfferSquared(ids[i], d2s[i])
			}
			all.OfferSquaredAll(ids[lo:hi], d2s[lo:hi])
			if len(one.items) != len(all.items) {
				return false
			}
			for i, it := range one.items {
				if it.id != all.items[i].id || math.Float64bits(it.d2) != math.Float64bits(all.items[i].d2) {
					return false
				}
			}
			lo = hi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
