package main

import (
	"slices"
	"sync"
	"time"
)

// The host's own speed drifts. On the 2-vCPU host this benchmark was
// tuned on, a fixed loop of CPU and memory work took 24% longer in one
// twenty-minute window than in another, with steal time near 1%, and
// set-up times and throughput moved with it by 25–30%. So every round
// times a fixed calibration workload, on as many goroutines as the
// workload has clients, before its set-up and again once its store is
// closed (so no background compaction competes with it), and the
// gated wall-clock metrics (ops_per_s, setup_s) are scaled by
// calRef ÷ the run's median calibration time: they read as if measured
// on a host running the calibration in calRef. The raw values are in
// the round lines of the output.

// calRef is the calibration time, in seconds, on the tuning host.
const calRef = 0.07

const (
	calKeys  = 1 << 16
	calBytes = 4 << 20
	calReps  = 10
)

// calibrate runs the calibration workload on threads goroutines at once
// and returns the wall seconds it took.
func calibrate(threads int) float64 {
	keys, bufs := make([][]uint64, threads), make([][]byte, threads)
	for g := range keys {
		// Allocate and touch the buffers before timing, so page faults
		// stay out of the measurement.
		keys[g], bufs[g] = make([]uint64, calKeys), make([]byte, calBytes)
		for i := range bufs[g] {
			bufs[g][i] = byte(i)
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calWork(keys[g], bufs[g])
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// calWork hashes, sorts and copies fixed amounts of data, the mix of
// work the engine does when it builds and merges tables.
func calWork(keys []uint64, buf []byte) {
	var h uint64
	for rep := 0; rep < calReps; rep++ {
		for i := range keys {
			keys[i] = mix64(uint64(i*rep) ^ h)
		}
		slices.Sort(keys)
		copy(buf[calBytes/8:], buf[:calBytes-calBytes/8])
		h += keys[calKeys/2]
	}
}
