// Package multiquery implements the multi-descriptor search algorithm the
// paper's conclusion announces as the next step for the Eff² system (§7):
// a query *image* is a bag of local descriptors; each descriptor runs an
// approximate k-NN search against the chunk index, and the per-descriptor
// results vote for their source images. The images with the most
// (weighted) votes are the retrieval result.
//
// This is the standard voting scheme for local-descriptor recognition
// (Schmid & Mohr 1997), layered on the chunk-search substrate so the
// quality/time stop rules apply per descriptor. The bag of descriptors is
// a natural batch, so the shard router (shard.Router.MultiQuery) runs the
// per-descriptor searches as one batch on the chunk-major engine — every
// chunk wanted by several descriptors is decoded once and scanned while
// hot — and this package supplies the options and the vote (Aggregate).
// Per-descriptor stop-rule and simulated-timing semantics are unchanged
// (the engine charges each descriptor's pipeline exactly the chunks it
// consumed, in its own rank order).
package multiquery

import (
	"context"
	"sort"
	"time"

	"repro/internal/search"
)

// Options controls one multi-descriptor query.
type Options struct {
	// K is the per-descriptor neighbor count (0 = 10; image voting wants
	// fewer, closer matches than the paper's 30).
	K int
	// Stop is the per-descriptor stop rule (nil = 3-chunk budget, a
	// deliberately aggressive approximation).
	Stop search.StopRule
	// RankWeighted scores a vote as 1/(1+rank) instead of 1, favoring
	// descriptors whose match was the closest.
	RankWeighted bool
	// MinVotes drops images below this score from the result (0 keeps
	// everything).
	MinVotes float64
	// Overlap selects the overlapped pipeline in the simulated timing.
	Overlap bool
	// GlobalBudget spends each descriptor's Stop budget once across the
	// shards instead of once per shard (batchexec.Options.GlobalBudget).
	GlobalBudget bool
	// Ctx, when non-nil, cancels the bag's batch between chunk charges —
	// the same deadline-propagation contract as batchexec.Options.Ctx.
	Ctx context.Context
}

// ImageScore is one ranked image in the result.
type ImageScore struct {
	Image uint32
	Score float64
	// Matches is the number of query descriptors that voted for the image.
	Matches int
}

// Result is the outcome of a multi-descriptor query.
type Result struct {
	Images []ImageScore // descending score
	// Descriptors is the number of query descriptors searched.
	Descriptors int
	// Simulated is the total simulated time across descriptor searches
	// (the searches are independent; a deployment would parallelize).
	Simulated time.Duration
	// ChunksRead is the total chunks processed across searches.
	ChunksRead int
	// ChunksSkipped is the total chunks skipped as unavailable across
	// searches (no live replica in a sharded deployment).
	ChunksSkipped int
	// Degraded reports that at least one descriptor's search skipped an
	// unavailable chunk: image scores cover the reachable data only.
	Degraded bool
}

// Aggregate folds per-descriptor search outcomes into the image-vote
// result: one (possibly rank-weighted) vote per (descriptor, image) pair,
// images ranked by descending score. It is the single voting
// implementation, so a sharded multi-descriptor query scores images
// exactly as an unsharded one does. Only RankWeighted and MinVotes are
// consulted from opts (K and Stop already shaped the results).
func Aggregate(results []search.Result, opts Options) *Result {
	type tally struct {
		score   float64
		matches int
	}
	votes := map[uint32]*tally{}
	res := &Result{Descriptors: len(results)}
	seen := map[uint32]bool{}
	for qi := range results {
		sr := &results[qi]
		res.Simulated += sr.Elapsed
		res.ChunksRead += sr.ChunksRead
		res.ChunksSkipped += sr.ChunksSkipped
		res.Degraded = res.Degraded || sr.Degraded
		// One vote per (descriptor, image): a descriptor matching many
		// descriptors of one image counts once, preventing a single
		// repetitive texture from dominating.
		clear(seen)
		for rank, nb := range sr.Neighbors {
			img := nb.ID.ImageOf()
			if seen[img] {
				continue
			}
			seen[img] = true
			t := votes[img]
			if t == nil {
				t = &tally{}
				votes[img] = t
			}
			if opts.RankWeighted {
				t.score += 1 / float64(1+rank)
			} else {
				t.score++
			}
			t.matches++
		}
	}

	for img, t := range votes {
		if t.score < opts.MinVotes {
			continue
		}
		res.Images = append(res.Images, ImageScore{Image: img, Score: t.score, Matches: t.matches})
	}
	sort.Slice(res.Images, func(a, b int) bool {
		if res.Images[a].Score != res.Images[b].Score {
			return res.Images[a].Score > res.Images[b].Score
		}
		return res.Images[a].Image < res.Images[b].Image
	})
	return res
}
