// TV archive near-duplicate sweep: the paper's collection provenance is
// television broadcasts (§5.2), where the same jingles, logos and reruns
// appear again and again. This example indexes an archive and sweeps a
// day of "new" frames against it under a fixed time budget per query —
// the elapsed-time stop rule the paper's §5.7 recommends — and reports
// which incoming images already exist in the archive.
//
//	go run ./examples/tvarchive
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	// The archive: existing broadcast material.
	archive := repro.GenerateCollection(40000, 11)

	idx, err := repro.BuildSharded(archive, repro.BuildConfig{
		Strategy:  repro.StrategyHybrid, // uniform chunks, best-effort density (§7)
		ChunkSize: 800,
		Seed:      2,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %d descriptors in %d uniform chunks\n", idx.Len(), idx.Chunks())

	// A day of incoming material: half reruns (descriptors re-sampled
	// from archive images with broadcast noise), half fresh content
	// (descriptors far from the archive's trimmed value ranges).
	r := rand.New(rand.NewSource(5))
	type incoming struct {
		name  string
		query repro.Vector
		rerun bool
	}
	var feed []incoming
	dq, err := repro.DatasetQueries(archive, 40, 21)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range dq {
		noisy := q.Clone()
		for d := range noisy {
			noisy[d] += float32(r.NormFloat64() * 0.5)
		}
		feed = append(feed, incoming{fmt.Sprintf("rerun-%02d", i), noisy, true})
	}
	sq, err := repro.SpaceQueries(archive, 40, 22)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range sq {
		feed = append(feed, incoming{fmt.Sprintf("fresh-%02d", i), q, false})
	}

	// Classify each frame with a 100 ms (simulated) budget per query: a
	// frame is a rerun if its nearest archive descriptor is very close.
	const budget = 100 * time.Millisecond
	truthScan := func(q repro.Vector) float64 { return repro.Exact(archive, q, 1)[0].Dist }

	// Calibrate the rerun threshold from a handful of known pairs.
	threshold := 0.0
	for i := 0; i < 8; i++ {
		threshold += truthScan(feed[i].query)
	}
	threshold = threshold / 8 * 2

	var tp, fp, fn, tn int
	var simTotal time.Duration
	for _, in := range feed {
		res, err := idx.Search(in.query, repro.SearchOptions{K: 1, MaxTime: budget, Overlap: true})
		if err != nil {
			log.Fatal(err)
		}
		simTotal += res.Simulated
		isRerun := len(res.Neighbors) > 0 && res.Neighbors[0].Dist < threshold
		switch {
		case isRerun && in.rerun:
			tp++
		case isRerun && !in.rerun:
			fp++
		case !isRerun && in.rerun:
			fn++
		default:
			tn++
		}
	}
	fmt.Printf("swept %d frames with a %v budget each (%.1f simulated s total)\n",
		len(feed), budget, simTotal.Seconds())
	fmt.Printf("reruns:   %d detected, %d missed\n", tp, fn)
	fmt.Printf("fresh:    %d passed, %d false alarms\n", tn, fp)
	if tp+tn >= int(float64(len(feed))*0.8) {
		fmt.Println("archive dedup working: ≥80% of the feed classified correctly under budget")
	} else {
		fmt.Println("classification degraded — raise the per-query budget")
	}
}
