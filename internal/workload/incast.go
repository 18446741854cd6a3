package workload

import (
	"fmt"
	"math/rand"

	"pnet/internal/sim"
	"pnet/internal/tcp"
)

// IncastConfig describes the many-to-one pattern of §6.5: fanIn senders
// each ship blockBytes to one receiver simultaneously — the classic
// partition/aggregate burst that overflows the receiver's last-hop queue.
// P-Net spreads the fan-in over its planes (each sender hashes or KSPs
// onto a plane), multiplying the last-hop buffering and drain rate.
type IncastConfig struct {
	// FanIn is the number of simultaneous senders.
	FanIn int
	// BlockBytes is each sender's response size.
	BlockBytes int64
	// Rounds repeats the incast (fresh random senders each round).
	Rounds int
	// Sel routes the responses.
	Sel  Selection
	Seed int64
}

// incastDeadline bounds an incast run's simulated time.
const incastDeadline = 60 * sim.Second

// IncastResult reports per-round incast completion times (time until the
// slowest response arrives) and loss totals.
type IncastResult struct {
	// CompletionTimes has one entry per round, in seconds.
	CompletionTimes []float64
	// Drops is the total packet loss across the run.
	Drops int64
	// Retransmits sums transport retransmissions.
	Retransmits int64
}

// RunIncast executes the workload: each round picks a random receiver and
// FanIn random senders, starts all responses at once, and waits for the
// slowest. If a response cannot start (no path from its sender), the run
// ends and that error is returned with the rounds completed so far.
func RunIncast(d *Driver, cfg IncastConfig) (IncastResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := d.PNet.Topo.Hosts
	if cfg.FanIn >= len(hosts) {
		return IncastResult{}, fmt.Errorf("workload: fan-in %d >= hosts %d", cfg.FanIn, len(hosts))
	}
	var res IncastResult
	var startErr error

	var startRound func(round int)
	startRound = func(round int) {
		if round >= cfg.Rounds {
			return
		}
		perm := rng.Perm(len(hosts))
		receiver := hosts[perm[0]]
		senders := perm[1 : 1+cfg.FanIn]
		t0 := d.Eng.Now()
		remaining := cfg.FanIn
		for _, s := range senders {
			_, err := d.StartFlow(hosts[s], receiver, cfg.BlockBytes, cfg.Sel, nil,
				func(f *tcp.Flow) {
					res.Retransmits += f.Retransmits
					remaining--
					if remaining == 0 {
						res.CompletionTimes = append(res.CompletionTimes, (d.Eng.Now() - t0).Seconds())
						startRound(round + 1)
					}
				})
			if err != nil {
				startErr = fmt.Errorf("workload: incast response from host %d: %w", s, err)
				return
			}
		}
	}
	startRound(0)
	for startErr == nil && len(res.CompletionTimes) < cfg.Rounds && d.Eng.Now() < incastDeadline {
		if !d.Eng.Step() {
			break
		}
	}
	res.Drops = d.Net.TotalDrops()
	if startErr != nil {
		return res, startErr
	}
	if len(res.CompletionTimes) < cfg.Rounds {
		return res, fmt.Errorf("workload: %d of %d incast rounds completed",
			len(res.CompletionTimes), cfg.Rounds)
	}
	return res, nil
}
