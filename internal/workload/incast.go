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
	// Deadline bounds the simulation; zero selects 60 s.
	Deadline sim.Time
}

func (c IncastConfig) deadline() sim.Time {
	if c.Deadline == 0 {
		return 60 * sim.Second
	}
	return c.Deadline
}

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
// slowest.
func RunIncast(d *Driver, cfg IncastConfig) (IncastResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := d.PNet.Topo.Hosts
	if cfg.FanIn >= len(hosts) {
		return IncastResult{}, fmt.Errorf("workload: fan-in %d >= hosts %d", cfg.FanIn, len(hosts))
	}
	var res IncastResult

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
				panic(err)
			}
		}
	}
	startRound(0)
	deadline := cfg.deadline()
	for len(res.CompletionTimes) < cfg.Rounds && d.Eng.Now() < deadline {
		if !d.Eng.Step() {
			break
		}
	}
	res.Drops = d.Net.TotalDrops()
	if len(res.CompletionTimes) < cfg.Rounds {
		return res, fmt.Errorf("workload: %d of %d incast rounds completed",
			len(res.CompletionTimes), cfg.Rounds)
	}
	return res, nil
}
