package server

import (
	"errors"
	"sync"
	"time"
)

// Prober drives shard health from evidence instead of memory. The
// router's data-path health is sticky by design — a shard marked down
// stays down so queries stop paying its timeout over and over — which
// means something outside the data path has to notice recovery. The
// prober is that something: every interval it probes each shard of
// every backend through the control-plane ProbeShard (no
// failover, no retries, no billing) and reconciles:
//
//   - a down shard whose probe succeeds is marked up (recovery);
//   - an up shard whose probe fails permanently is marked down, so the
//     first paying query doesn't have to eat the discovery cost;
//   - a transient probe failure (Temporary() == true) changes nothing —
//     one flaky read is not evidence of death, and the data path
//     already retries transients.
type Prober struct {
	reg      *Registry
	interval time.Duration

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
}

// NewProber returns a prober over reg's backends, probing every
// interval (<= 0 selects 250ms). Call Start to launch it and Stop to
// halt it.
func NewProber(reg *Registry, interval time.Duration) *Prober {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Prober{
		reg:      reg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the probe loop in its own goroutine. Starting twice is
// a no-op, as is starting after Stop.
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		p.started = true
		go p.run()
	})
}

func (p *Prober) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.Sweep()
		}
	}
}

// Sweep probes every shard of every backend once and reconciles
// health. Exported so tests (and operators' admin hooks) can force a
// probe round without waiting out the interval.
func (p *Prober) Sweep() {
	for _, name := range p.reg.Names() {
		b, ok := p.reg.Get(name)
		if !ok {
			continue
		}
		for s := 0; s < b.Shards(); s++ {
			err := b.ProbeShard(s)
			switch {
			case err == nil:
				if b.ShardDown(s) {
					b.MarkShardUp(s)
				}
			case probeTemporary(err):
				// One transient failure is not evidence either way.
			default:
				if !b.ShardDown(s) {
					b.MarkShardDown(s)
				}
			}
		}
	}
}

// Stop halts the probe loop and waits for it to exit, so shutdown can
// assert zero leaked goroutines. Safe to call more than once; calling
// it before Start additionally pins the prober so a later Start is a
// no-op.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	// Claiming startOnce here settles the race with a concurrent Start:
	// whichever Do runs first wins, and both orders are safe — either the
	// loop was launched (and exits on the closed stop channel, so waiting
	// on done is bounded) or it never will be.
	p.startOnce.Do(func() {})
	if p.started {
		<-p.done
	}
}

// probeTemporary classifies a probe error as transient via the
// Temporary() convention (the same classification the router's retry
// loop uses).
func probeTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}
