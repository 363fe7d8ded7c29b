package vec

import (
	"fmt"
	"os"
)

// kernelBackend bundles one implementation of the two block kernels. Every
// backend obeys the accumulation contract documented in kernels.go, so all
// of them return byte-identical values for the same inputs; they differ
// only in speed.
type kernelBackend struct {
	name       string
	distsTo    func(q, backing []float32, dims int, out []float64)
	distsMulti func(queries, backing []float32, dims int, out []float64)
}

var portableKernels = kernelBackend{
	name:       "portable",
	distsTo:    squaredDistancesToPortable,
	distsMulti: squaredDistancesMultiPortable,
}

// available lists the backends usable on this CPU, slowest first: the
// portable reference, then whatever archKernels (per-GOARCH, see
// dispatch_amd64.go / dispatch_arm64.go / dispatch_portable.go) detected
// at startup. The default pick is the last entry.
var available = append([]kernelBackend{portableKernels}, archKernels()...)

// BackendEnv is the environment variable that overrides backend selection
// at process start: REPRO_VEC_BACKEND=portable|sse2|avx2|neon. An override
// naming a backend the CPU cannot run panics in init — a silent fallback
// would invalidate any benchmark or repro run that asked for a specific
// backend.
const BackendEnv = "REPRO_VEC_BACKEND"

// The active backend is stored as individual package-level function
// variables, not a struct: the kernels are called once per row block, so
// each call pays exactly one indirect jump with no field load in front of
// it.
var (
	activeName       string
	activeDistsTo    func(q, backing []float32, dims int, out []float64)
	activeDistsMulti func(queries, backing []float32, dims int, out []float64)
)

func init() {
	b, err := selectKernels(os.Getenv(BackendEnv))
	if err != nil {
		panic(err)
	}
	install(b)
}

func install(b kernelBackend) {
	activeName = b.name
	activeDistsTo = b.distsTo
	activeDistsMulti = b.distsMulti
}

// multiFrom builds a SquaredDistancesMulti implementation from a row-scan
// entry point by per-query delegation: the batch shape shares no state
// across queries, and Multi is called once per row block, so the extra
// indirect call is off the per-row hot path. The assembly backends use it
// so each architecture only hand-writes the row-scan kernel.
func multiFrom(distsTo func(q, backing []float32, dims, rows int, out []float64)) func(queries, backing []float32, dims int, out []float64) {
	return func(queries, backing []float32, dims int, out []float64) {
		nq := len(queries) / dims
		n := len(backing) / dims
		for qi := 0; qi < nq; qi++ {
			distsTo(queries[qi*dims:(qi+1)*dims], backing, dims, n, out[qi*n:])
		}
	}
}

// selectKernels resolves a backend name ("" means best available).
func selectKernels(want string) (kernelBackend, error) {
	if want == "" {
		return available[len(available)-1], nil
	}
	for _, b := range available {
		if b.name == want {
			return b, nil
		}
	}
	return kernelBackend{}, fmt.Errorf("vec: kernel backend %q not available on this CPU (have %v)", want, Backends())
}

// Backend reports the name of the kernel backend in use: "portable",
// "sse2", "avx2" or "neon". Tests and perf snapshots record it so a result
// can be tied to the code path that produced it.
func Backend() string { return activeName }

// Backends lists every kernel backend usable on this CPU, slowest first.
// "portable" is always present.
func Backends() []string {
	names := make([]string, len(available))
	for i, b := range available {
		names[i] = b.name
	}
	return names
}

// UseBackend switches the active kernel backend. It is a test and
// benchmark hook — production processes select a backend once at startup
// (best available, or the BackendEnv override) and never switch. Callers
// must not race UseBackend with kernel calls.
func UseBackend(name string) error {
	b, err := selectKernels(name)
	if err != nil {
		return err
	}
	install(b)
	return nil
}

// SquaredDistancesTo computes the squared distance from q to every row of
// the flattened backing array (len(backing)/dims rows of dims float32s
// each, the layout of chunkfile.Data.Vecs and descriptor.Collection) and
// stores them in out. It panics if out is shorter than the row count or
// backing is not a whole number of rows. Each out[i] is bit-identical to
// SquaredDistance(q, row_i) on every backend.
func SquaredDistancesTo(q Vector, backing []float32, dims int, out []float64) {
	if len(q) != dims {
		panic(fmt.Sprintf("vec: query dims %d != row dims %d", len(q), dims))
	}
	if dims <= 0 || len(backing)%dims != 0 {
		panic(fmt.Sprintf("vec: backing length %d is not a multiple of dims %d", len(backing), dims))
	}
	n := len(backing) / dims
	if len(out) < n {
		panic(fmt.Sprintf("vec: out length %d < %d rows", len(out), n))
	}
	activeDistsTo(q, backing, dims, out)
}

// SquaredDistancesMulti computes the squared distance from every query of
// the flattened queries array (len(queries)/dims queries of dims float32s
// each) to every row of backing (the layout of chunkfile.Data.Vecs),
// writing the distances for query qi to out[qi*n : (qi+1)*n] where n is
// the row count of backing. It is the batch engine's kernel: the rows of
// one chunk stay hot in cache while Q queries scan them (callers pass
// row blocks small enough to fit in L1). Every out value is bit-identical
// to SquaredDistance(query_qi, row_i) because every backend implements the
// one accumulation scheme documented in kernels.go.
func SquaredDistancesMulti(queries, backing []float32, dims int, out []float64) {
	if dims <= 0 || len(queries)%dims != 0 {
		panic(fmt.Sprintf("vec: queries length %d is not a multiple of dims %d", len(queries), dims))
	}
	if len(backing)%dims != 0 {
		panic(fmt.Sprintf("vec: backing length %d is not a multiple of dims %d", len(backing), dims))
	}
	nq := len(queries) / dims
	n := len(backing) / dims
	if len(out) < nq*n {
		panic(fmt.Sprintf("vec: out length %d < %d queries × %d rows", len(out), nq, n))
	}
	activeDistsMulti(queries, backing, dims, out)
}
