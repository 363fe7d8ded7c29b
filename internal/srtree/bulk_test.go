package srtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// referenceLeaves is the static bulk load as it was before the key-pair
// sort, the row copy and the concurrent halves: sort idx itself with a
// collection lookup in less, one level at a time. It returns each leaf's
// entries in split order.
func referenceLeaves(coll *descriptor.Collection, idx []int, leafCap int) [][]int {
	if len(idx) <= leafCap {
		return [][]int{append([]int(nil), idx...)}
	}
	dim := referenceSpreadDim(coll, idx)
	sort.Slice(idx, func(a, b int) bool {
		return coll.Vec(idx[a])[dim] < coll.Vec(idx[b])[dim]
	})
	nLeaves := (len(idx) + leafCap - 1) / leafCap
	cut := (nLeaves / 2) * leafCap
	if cut == 0 {
		cut = leafCap
	}
	left := referenceLeaves(coll, idx[:cut], leafCap)
	right := referenceLeaves(coll, idx[cut:], leafCap)
	return append(left, right...)
}

// referenceSpreadDim is the highest-variance dimension over idx, summed
// in idx order straight from the collection.
func referenceSpreadDim(coll *descriptor.Collection, idx []int) int {
	dims := coll.Dims()
	sum := make([]float64, dims)
	sqs := make([]float64, dims)
	for _, i := range idx {
		v := coll.Vec(i)
		for d, x := range v {
			fx := float64(x)
			sum[d] += fx
			sqs[d] += fx * fx
		}
	}
	n := float64(len(idx))
	best, bestVar := 0, -1.0
	for d := 0; d < dims; d++ {
		mean := sum[d] / n
		variance := sqs[d]/n - mean*mean
		if variance > bestVar {
			best, bestVar = d, variance
		}
	}
	return best
}

// TestBulkLoadMatchesReference pins the chunks' members to the
// one-level-at-a-time reference's leaves, entry for entry and in order,
// and their centroids and radii bit for bit. The collection is 2.5× the
// concurrency threshold, so the top splits run their halves on separate
// goroutines, and every coordinate takes one of 16 values, so every split
// sorts long runs of equal keys whose order only sort.Slice's own swap
// sequence fixes. The subset case indexes every other descriptor, so no
// chunk may name one outside it. Run at several core counts (-cpu) the
// leaves must not move.
func TestBulkLoadMatchesReference(t *testing.T) {
	const dims, leafCap = 8, 250
	n := 5*parallelRows/2 + 77 // a short last leaf
	r := rand.New(rand.NewSource(9))
	coll := descriptor.NewCollection(dims, n)
	v := make(vec.Vector, dims)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = float32(r.Intn(16)) * 0.3 * float32(1+d%3)
		}
		coll.Append(descriptor.ID(i), v)
	}
	shuffled := r.Perm(n)
	var odd []int
	for _, i := range shuffled {
		if i%2 == 1 {
			odd = append(odd, i)
		}
	}
	for _, tc := range []struct {
		name    string
		indexes []int
	}{
		{"whole collection", nil},
		{"shuffled indexes", shuffled},
		{"subset indexes", odd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := slices.Clone(tc.indexes)
			if ref == nil {
				ref = make([]int, n)
				for i := range ref {
					ref[i] = i
				}
			}
			want := referenceLeaves(coll, ref, leafCap)

			chunks, err := Chunks(coll, tc.indexes, leafCap)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunks) != len(want) {
				t.Fatalf("%d chunks, reference has %d leaves", len(chunks), len(want))
			}
			for i, members := range want {
				c, w := chunks[i], cluster.NewFromMembers(coll, members)
				if !slices.Equal(c.Members, members) {
					t.Fatalf("chunk %d differs from the reference leaf:\n got %v\nwant %v", i, head(c.Members), head(members))
				}
				if math.Float64bits(c.Radius) != math.Float64bits(w.Radius) {
					t.Fatalf("chunk %d radius %v, reference %v", i, c.Radius, w.Radius)
				}
				for d := range w.Centroid {
					if math.Float32bits(c.Centroid[d]) != math.Float32bits(w.Centroid[d]) {
						t.Fatalf("chunk %d centroid[%d] %v, reference %v", i, d, c.Centroid[d], w.Centroid[d])
					}
				}
			}
		})
	}
}

// head abbreviates a leaf for a failure message.
func head(entries []int) string {
	if len(entries) > 8 {
		return fmt.Sprint(entries[:8], "…")
	}
	return fmt.Sprint(entries)
}
