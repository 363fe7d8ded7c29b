// Package simdisk models the paper's 2005 evaluation machine (Dell
// workstation, 2.8 GHz Pentium 4, 1 GB RAM, 40 GB ATA disk) as a
// deterministic cost model, so the paper's wall-clock figures (Figures 4-7,
// Table 2) can be regenerated with their original magnitudes on modern
// hardware where the whole collection would sit in RAM.
//
// The model is calibrated against the three timing anchors the paper
// itself publishes:
//
//   - "reading and processing each chunk takes only about 10 milliseconds"
//     for SR-tree chunks of ~1,700 descriptors (§5.5);
//   - "processing the largest chunk of the BAG algorithm took as much as
//     1.8 seconds" for the ~1M-descriptor chunk (§5.5);
//   - "reading the chunk index takes about 50 milliseconds" (§5.5).
//
// Defaults: 8 ms average positioning time and 60 MB/s sequential transfer
// (ATA/100-class disk), 1.7 µs per 24-d Euclidean distance evaluation
// (P4-class core including memory traffic), 30 ms fixed index-open
// overhead and an n·log₂(n)·50 ns ranking sort term. See the calibration
// tests for the resulting anchor values.
package simdisk

import (
	"math"
	"time"
)

// Model is a deterministic I/O + CPU cost model.
type Model struct {
	// Seek is the average positioning cost paid once per chunk read and
	// once per index read.
	Seek time.Duration
	// TransferRate is the sequential read bandwidth in bytes per second.
	TransferRate float64
	// DistanceCost is the CPU cost of one full-dimensional distance
	// computation (including fetch of the descriptor from the buffer).
	DistanceCost time.Duration
	// IndexOverhead is the fixed cost of opening and parsing the chunk
	// index beyond raw transfer (directory lookup, allocation).
	IndexOverhead time.Duration
	// SortEntryCost is the per-comparison cost of ranking the chunk index;
	// the ranking costs n·log₂(n) comparisons.
	SortEntryCost time.Duration
}

// Default2005 returns the calibrated model described in the package
// comment.
func Default2005() *Model {
	return &Model{
		Seek:          8 * time.Millisecond,
		TransferRate:  60 << 20, // 60 MiB/s
		DistanceCost:  1700 * time.Nanosecond,
		IndexOverhead: 30 * time.Millisecond,
		SortEntryCost: 50 * time.Nanosecond,
	}
}

// ReadTime returns the simulated cost of one contiguous read of the given
// size: one seek plus transfer.
func (m *Model) ReadTime(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	transfer := time.Duration(float64(bytes) / m.TransferRate * float64(time.Second))
	return m.Seek + transfer
}

// CPUTime returns the simulated cost of computing the given number of
// query-descriptor distances.
func (m *Model) CPUTime(distances int) time.Duration {
	return time.Duration(distances) * m.DistanceCost
}

// IndexReadTime returns the simulated cost of reading a chunk index of n
// entries of entryBytes each and globally ranking it against the query:
// one read, n distance computations, and an n·log₂(n) sort.
func (m *Model) IndexReadTime(entries, entryBytes int) time.Duration {
	t := m.ReadTime(entries*entryBytes) + m.IndexOverhead + m.CPUTime(entries)
	if entries > 1 {
		comparisons := float64(entries) * math.Log2(float64(entries))
		t += time.Duration(comparisons * float64(m.SortEntryCost))
	}
	return t
}

// Pipeline simulates the elapsed time of a chunked search. In overlapped
// mode the reader prefetches the globally ranked chunk list while the CPU
// scans the previous chunk (the overlap the paper says uniform chunk sizes
// are meant to exploit, §1.1); in serial mode each chunk is read and then
// scanned with no overlap (the ablation).
//
// The pipeline recurrence for overlapped mode is
//
//	ioDone(i)  = ioDone(i-1) + io(i)
//	cpuDone(i) = max(ioDone(i), cpuDone(i-1)) + cpu(i)
//
// and the elapsed time after chunk i is cpuDone(i).
type Pipeline struct {
	model   *Model
	overlap bool
	ioDone  time.Duration
	cpuDone time.Duration
}

// NewPipeline returns a pipeline whose clock starts after the given
// initial cost (typically the index read).
func NewPipeline(m *Model, overlap bool, initial time.Duration) *Pipeline {
	p := &Pipeline{}
	p.Reset(m, overlap, initial)
	return p
}

// Reset re-initializes p in place, allowing a pipeline value held in a
// per-query scratch to be reused without allocating.
func (p *Pipeline) Reset(m *Model, overlap bool, initial time.Duration) {
	*p = Pipeline{model: m, overlap: overlap, ioDone: initial, cpuDone: initial}
}

// Chunk advances the pipeline by one chunk of the given on-disk size and
// descriptor count, returning the elapsed simulated time after the CPU has
// finished scanning it.
func (p *Pipeline) Chunk(bytes, descriptors int) time.Duration {
	io := p.model.ReadTime(bytes)
	cpu := p.model.CPUTime(descriptors)
	if p.overlap {
		p.ioDone += io
		if p.ioDone > p.cpuDone {
			p.cpuDone = p.ioDone
		}
		p.cpuDone += cpu
	} else {
		p.ioDone += io + cpu
		p.cpuDone = p.ioDone
	}
	return p.cpuDone
}

// Stall delays the pipeline's read stream by d — the cost of a failed
// read attempt plus its retry backoff in the fault-tolerant read path. The
// delay lands on the I/O clock (in overlapped mode a CPU still busy on a
// previous chunk absorbs what it can, exactly as a real prefetcher would);
// the CPU clock is dragged along when it has caught up. Charging the stall
// before the chunk it delayed keeps the cost model honest: the machine
// that performed the retries is the machine billed for them.
func (p *Pipeline) Stall(d time.Duration) {
	if d <= 0 {
		return
	}
	p.ioDone += d
	if p.cpuDone < p.ioDone {
		p.cpuDone = p.ioDone
	}
}

// Elapsed returns the current simulated elapsed time.
func (p *Pipeline) Elapsed() time.Duration { return p.cpuDone }
