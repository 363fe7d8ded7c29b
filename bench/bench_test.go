package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"syscall"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSlicedP99(t *testing.T) {
	// Ten one-second slices of 1000 samples at 1 ms; slice 3 holds a stall
	// that lifts its own p99 to 50 ms and must not move the median.
	var samples []timedSample
	for s := 0; s < 10; s++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if s == 3 && i < 20 {
				ms = 50
			}
			samples = append(samples, timedSample{at: float64(s) + float64(i)/1000, ms: ms})
		}
	}
	p99, slices := slicedP99(samples, 10)
	if slices != 10 || p99 != 1 {
		t.Errorf("slicedP99 = %v over %d slices, want 1 over 10", p99, slices)
	}
	// Too few samples for ten slices: fall back to as many as keep 1000 each.
	p99, slices = slicedP99(samples[:2500], 2.5)
	if slices != 2 || p99 != 1 {
		t.Errorf("slicedP99 of 2500 samples = %v over %d slices, want 1 over 2", p99, slices)
	}
	if _, slices = slicedP99(samples[:300], 0.3); slices != 1 {
		t.Errorf("300 samples used %d slices, want 1", slices)
	}
	if p99, slices = slicedP99(nil, 10); p99 != 0 || slices != 0 {
		t.Errorf("slicedP99(nil) = %v, %d", p99, slices)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, StartNs: 0, EndNs: 100},
		// Two parallel children overlapping on [30,40), one running past
		// the parent's end, and a grandchild that must not count twice.
		{Name: "a", ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{Name: "b", ID: 3, Parent: 1, StartNs: 30, EndNs: 60},
		{Name: "c", ID: 4, Parent: 1, StartNs: 90, EndNs: 120},
		{Name: "a.child", ID: 5, Parent: 2, StartNs: 15, EndNs: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestSplitRequestsSumsToTotal(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	for req := int64(1); req <= 20; req++ {
		tr.add("client.request", req, levelClient, classSearch, at(0), at(1000+int(req)))
		tr.add("server.handle", req, levelServer, 0, at(200), at(900))
		tr.add("backend.search", req, levelBackend, 0, at(300), at(700))
	}
	tr.add("client.request", 99, levelClient, classSearch, at(0), at(5)) // no server span: dropped
	splits := splitRequests(tr.spans)
	if len(splits) != 20 {
		t.Fatalf("got %d complete requests, want 20", len(splits))
	}
	for _, r := range splits {
		if r.frontDoor != 300 || r.backend != 400 || r.client+r.frontDoor+r.backend != r.total {
			t.Fatalf("split %+v does not add up", r)
		}
	}
	band := medianBand(splits)
	if band.client+band.frontDoor+band.backend != band.total {
		t.Errorf("median band %+v does not add up", band)
	}
}

func TestMixedScheduleIsSeeded(t *testing.T) {
	byClass := map[class][]int{classSearch: {0, 1, 2, 3}, classMulti: {4, 5}, classStream: {6}}
	a := mixedSchedule(1, 250, 4, byClass)
	b := mixedSchedule(1, 250, 4, byClass)
	c := mixedSchedule(2, 250, 4, byClass)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	if len(a) != 1000 {
		t.Fatalf("schedule has %d arrivals, want 1000", len(a))
	}
	counts := map[int]int{}
	for i, ar := range a {
		if i > 0 && ar.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if ar.due < 0 || ar.due >= 4*time.Second {
			t.Fatalf("arrival %d due at %v, outside the window", i, ar.due)
		}
		switch {
		case ar.req <= 3:
			counts[0]++
		case ar.req <= 5:
			counts[1]++
		default:
			counts[2]++
		}
	}
	if counts[0] != 850 || counts[1] != 100 || counts[2] != 50 {
		t.Errorf("class mix %v, want exactly 850/100/50", counts)
	}
}

func TestWorkloadIsSeeded(t *testing.T) {
	coll, _, err := buildIndex(layout{out: t.TempDir()}, quickSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		a, err := newWorkload(sp, coll, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(sp, coll, 1, 2)
		c, _ := newWorkload(sp, coll, 2, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different workloads", sp.name)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) {
			t.Errorf("%s: two seeds gave the same requests", sp.name)
		}
		marked := 0
		for _, m := range captureSet(a) {
			if m {
				marked++
			}
		}
		if marked == 0 || marked > captureRequests {
			t.Errorf("%s: %d requests marked for verification", sp.name, marked)
		}
	}
}

// TestBenchmarkFileInSync keeps BENCHMARK.json and the tables the
// harness emits from saying the same thing.
func TestBenchmarkFileInSync(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", bf.PerLayer, perLayer())
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in the file, %q in the code", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q has direction %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q has bound %v outside 0..0.25", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, sp := range specs {
		if !name.MatchString(sp.name) || seen[sp.name] {
			t.Errorf("workload name %q breaks the naming rules", sp.name)
		}
		seen[sp.name] = true
	}

	var raw map[string]json.RawMessage
	data, _ := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
}

func processGone(pid int) bool {
	for i := 0; i < 100; i++ {
		if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestQuickEndToEnd drives every workload in quick mode against a real
// reprod child, the mixed one traced, and checks the child drains on
// SIGTERM and is gone afterwards.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs reprod")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{layout: layout{root: root, out: t.TempDir()}, seed: 1, seconds: 0.6, size: quickSize}
	if err := os.MkdirAll(filepath.Join(cfg.layout.out, "bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := buildReprod(cfg.layout); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		cfg.trace = sp.name == "serve_mixed"
		rep, err := runWorkload(cfg, sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", sp.name, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
		}
		if rep.Samples["verified_requests"] == 0 {
			t.Errorf("%s: no answer was verified against the library", sp.name)
		}
		want := len(timedLayer)
		if cfg.trace {
			want = len(perLayer())
			if rep.Attribution == nil || rep.Attribution.SumGapPct > 5 {
				t.Errorf("%s: attribution %+v does not sum to the traced p50 within 5%%", sp.name, rep.Attribution)
			}
			if _, err := os.Stat(filepath.Join(cfg.layout.out, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("%s: %v", sp.name, err)
			}
		} else if len(rep.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", sp.name, len(rep.EndToEnd), len(endToEnd))
		}
		if len(rep.PerLayer) != want {
			t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(rep.PerLayer), want)
		}
		if drain := rep.PerLayer["server.drain_ms"].Value; drain <= 0 {
			t.Errorf("%s: drain took %v ms", sp.name, drain)
		}
	}

	// A server that cannot start must not be left behind: a negative
	// cache size makes reprod refuse its flags after the process exists.
	start := time.Now()
	if proc, err := startReprod(cfg.layout, -1); err == nil {
		proc.kill()
		t.Fatal("reprod started with a negative cache size")
	} else if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("took %v to notice that reprod had exited", waited)
	}
	proc, err := startReprod(cfg.layout, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pid := proc.cmd.Process.Pid
	if _, err := proc.stop(); err != nil {
		t.Errorf("clean stop: %v", err)
	}
	if !processGone(pid) {
		t.Errorf("reprod pid %d outlived stop", pid)
	}
	proc, err = startReprod(cfg.layout, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pid = proc.cmd.Process.Pid
	proc.kill()
	if !processGone(pid) {
		t.Errorf("reprod pid %d outlived kill", pid)
	}
}
