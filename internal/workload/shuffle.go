package workload

import (
	"fmt"
	"math/rand"

	"pnet/internal/graph"
	"pnet/internal/sim"
	"pnet/internal/tcp"
)

// ShuffleConfig describes the Hadoop-sort workload of §5.2.2: mappers read
// input blocks from random remote hosts, shuffle buckets all-to-all to
// reducers, and reducers write output blocks to random replicas. Stages
// run under a global barrier, and each worker keeps a bounded number of
// block transfers in flight.
type ShuffleConfig struct {
	Mappers, Reducers int
	// TotalBytes is the dataset size split evenly over mappers (the
	// paper sorts 100 GB across 32+32 workers).
	TotalBytes int64
	// BlockBytes is the read/write block size (paper: 128 MB).
	BlockBytes int64
	// Concurrency is the number of in-flight blocks per worker (paper: 4).
	Concurrency int
	// Sel routes every transfer (the paper uses single-path routing for
	// these ~100 MB flows, per the §5.1.2 policy).
	Sel  Selection
	Seed int64
}

// shuffleDeadline bounds a shuffle run's simulated time.
const shuffleDeadline = 300 * sim.Second

// StageTimes reports per-worker completion times, in seconds from the
// stage's barrier, for the three stages (Figure 12's distributions).
type StageTimes struct {
	Read    []float64 // per mapper
	Shuffle []float64 // per mapper
	Write   []float64 // per reducer
}

// RunShuffle executes the three-stage job and returns per-worker stage
// completion times. If a transfer cannot start (no path between its
// hosts), the run ends and that error is returned.
func RunShuffle(d *Driver, cfg ShuffleConfig) (StageTimes, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := d.PNet.Topo.Hosts
	if cfg.Mappers+cfg.Reducers > len(hosts) {
		return StageTimes{}, fmt.Errorf("workload: %d workers > %d hosts", cfg.Mappers+cfg.Reducers, len(hosts))
	}
	// Workers occupy distinct random hosts; other hosts serve as the
	// distributed filesystem ("remote racks" of the paper).
	perm := rng.Perm(len(hosts))
	mappers := make([]graph.NodeID, cfg.Mappers)
	reducers := make([]graph.NodeID, cfg.Reducers)
	for i := range mappers {
		mappers[i] = hosts[perm[i]]
	}
	for i := range reducers {
		reducers[i] = hosts[perm[cfg.Mappers+i]]
	}
	others := perm[cfg.Mappers+cfg.Reducers:]
	randomOther := func() graph.NodeID {
		if len(others) == 0 {
			return hosts[perm[rng.Intn(len(perm))]]
		}
		return hosts[others[rng.Intn(len(others))]]
	}

	var times StageTimes
	var startErr error

	// runStage runs one barrier-synchronized stage: worker w must move
	// transfers[w] flows, Concurrency at a time; flow f's source and
	// destination come from the spec function. done is called with the
	// per-worker completion times when every worker finishes.
	runStage := func(workers int, flows func(w int) []flowSpec, record *[]float64, next func()) {
		start := d.Eng.Now()
		*record = make([]float64, workers)
		remainingWorkers := workers
		for w := 0; w < workers; w++ {
			specs := flows(w)
			if len(specs) == 0 {
				(*record)[w] = 0
				remainingWorkers--
				continue
			}
			nextIdx := 0
			outstanding := 0
			remaining := len(specs)
			w := w
			var launch func()
			var onDone func(*tcp.Flow)
			onDone = func(*tcp.Flow) {
				outstanding--
				remaining--
				if remaining == 0 {
					(*record)[w] = (d.Eng.Now() - start).Seconds()
					remainingWorkers--
					if remainingWorkers == 0 {
						next()
					}
					return
				}
				launch()
			}
			launch = func() {
				for startErr == nil && outstanding < cfg.Concurrency && nextIdx < len(specs) {
					s := specs[nextIdx]
					nextIdx++
					outstanding++
					if _, err := d.StartFlow(s.src, s.dst, s.size, cfg.Sel, s.deliveredHook(onDone), s.completeHook(onDone)); err != nil {
						startErr = fmt.Errorf("workload: shuffle transfer from node %d to node %d: %w", s.src, s.dst, err)
					}
				}
			}
			launch()
		}
		if remainingWorkers == 0 {
			next()
		}
	}

	perMapper := cfg.TotalBytes / int64(cfg.Mappers)
	readBlocks := int(max(1, (perMapper+cfg.BlockBytes-1)/cfg.BlockBytes))
	shuffleBytes := max(1, cfg.TotalBytes/int64(cfg.Mappers)/int64(cfg.Reducers))
	perReducer := cfg.TotalBytes / int64(cfg.Reducers)
	writeBlocks := int(max(1, (perReducer+cfg.BlockBytes-1)/cfg.BlockBytes))

	finished := false
	stage3 := func() {
		runStage(cfg.Reducers, func(w int) []flowSpec {
			specs := make([]flowSpec, writeBlocks)
			for b := range specs {
				// Reducer writes its output block to a random replica.
				specs[b] = flowSpec{src: reducers[w], dst: randomOther(), size: cfg.BlockBytes, senderSide: true}
			}
			return specs
		}, &times.Write, func() { finished = true })
	}
	stage2 := func() {
		runStage(cfg.Mappers, func(w int) []flowSpec {
			specs := make([]flowSpec, cfg.Reducers)
			for r := range specs {
				// One bucket per (mapper, reducer) pair.
				specs[r] = flowSpec{src: mappers[w], dst: reducers[r], size: shuffleBytes, senderSide: true}
			}
			return specs
		}, &times.Shuffle, stage3)
	}
	runStage(cfg.Mappers, func(w int) []flowSpec {
		specs := make([]flowSpec, readBlocks)
		for b := range specs {
			// Mapper loads an input block from a random remote host;
			// completion is observed at the mapper (the receiver).
			specs[b] = flowSpec{src: randomOther(), dst: mappers[w], size: cfg.BlockBytes}
		}
		return specs
	}, &times.Read, stage2)

	for startErr == nil && !finished && d.Eng.Now() < shuffleDeadline {
		if !d.Eng.Step() {
			break
		}
	}
	if startErr != nil {
		return times, startErr
	}
	if !finished {
		return times, fmt.Errorf("workload: shuffle incomplete by %v (drops=%d)",
			shuffleDeadline, d.Net.TotalDrops())
	}
	return times, nil
}

// flowSpec is one transfer within a stage. senderSide selects whether the
// worker observes completion at the sender (its own writes) or the
// receiver (its reads).
type flowSpec struct {
	src, dst   graph.NodeID
	size       int64
	senderSide bool
}

func (s flowSpec) deliveredHook(onDone func(*tcp.Flow)) func(*tcp.Flow) {
	if s.senderSide {
		return nil
	}
	return onDone
}

func (s flowSpec) completeHook(onDone func(*tcp.Flow)) func(*tcp.Flow) {
	if s.senderSide {
		return onDone
	}
	return nil
}
