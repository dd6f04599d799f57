// Command perfbench is the repository's benchmark: it drives NobLSM
// stores through engine.DB on named workloads, checks every value it
// reads back, and prints end-to-end metrics (--trace 0) or per-layer
// metrics from a traced run (--trace 1). The last line of its standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics. See README.md for the workloads and the metric
// glossary.
//
//	bash perfbench/run.sh --workload fillrandom --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"noblsm/internal/vclock"
)

// minRounds keeps enough repeats in a run for its medians even when
// rounds outlast --seconds.
const minRounds = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload name: fillrandom, readrandom or zipf-mixed")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 30, "measure for this many seconds (whole rounds)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// round is one repeat: set-up, measured phase, checks.
type round struct {
	traced bool
	setupS float64
	ph     phase
	cal    [2]float64 // calibration seconds before set-up and after the store is closed

	spaceAmp    float64 // mean of the phase's footprint samples
	shadowBytes int64
	walCreates  int64
	bgSpans     []span // traced rounds: vfs spans off the clients' timelines

	failed, wrong, lost, checked int64
	// fingerprint holds the virtual-time and device counters that a
	// deterministic (single-client, synchronous) round repeats exactly.
	fingerprint string
}

func (r *round) delta(name string) int64 {
	return r.ph.after.Counters[name] - r.ph.before.Counters[name]
}

func runRound(w workload, in input, traced bool) (*round, *recorder, error) {
	// Return the previous round's memory before this one's set-up.
	quiesce()
	r := &round{traced: traced}
	r.cal[0] = calibrate(w.clients)
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	issued := make([]atomic.Uint32, w.keys)
	tl := vclock.NewTimeline(0)
	t0 := time.Now()
	s, err := setup(w, in, tl, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r.setupS = time.Since(t0).Seconds()
	for _, idx := range in.preload {
		issued[idx].Store(1)
	}

	r.ph = runPhase(w, s, in, issued, tl.Now(), rec)
	if rec != nil {
		r.walCreates, r.bgSpans = rec.walCreates.Load(), rec.bg
	}
	last := r.ph.clients[0].tl
	for _, c := range r.ph.clients {
		if c.tl.Now() > last.Now() {
			last = c.tl
		}
		r.failed += c.failed
		r.wrong += c.wrong
	}
	r.shadowBytes = shadowBytes(s, last)
	r.spaceAmp = mean(r.ph.space)
	r.fingerprint = fmt.Sprintf("velapsed=%d syncs=%d ssd_written=%d minor=%d major=%d trivial=%d seek=%d cread=%d cwritten=%d",
		r.ph.vElapsed, r.delta("ext4.syncs"), r.delta("ssd.bytes_written"), r.delta("engine.compactions.minor"),
		r.delta("engine.compactions.major"), r.delta("engine.compactions.trivial_moves"), r.delta("engine.compactions.seek"),
		r.delta("compaction.bytes_read"), r.delta("compaction.bytes_written"))

	if w.crashCheck {
		// The crashed store is abandoned, not closed.
		checked, lost, wrong, err := crashCheck(s, last, in, r.ph.clients[0].acked)
		if err != nil {
			return nil, nil, fmt.Errorf("%s crash check: %w", w.name, err)
		}
		r.checked, r.lost, r.wrong = checked, lost, r.wrong+wrong
	} else if err := s.db.Close(last); err != nil {
		return nil, nil, fmt.Errorf("%s close: %w", w.name, err)
	}
	// Close has drained the background worker, so this sample, like the
	// first, sees only the host and not work the phase left pending.
	quiesce()
	r.cal[1] = calibrate(w.clients)
	return r, rec, nil
}

// quiesce collects garbage and returns freed memory to the OS, so that
// a calibration or set-up that follows does not pay for earlier work.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, seed int64, seconds time.Duration, traced bool) error {
	in := makeInput(w, seed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%v clients=%d keys=%d ops/round=%d async=%v cache=%dB wal=unsynced\n",
		w.name, seed, seconds.Seconds(), traced, w.clients, w.keys, w.ops, w.async, w.baseOptions().BlockCacheBytes)
	var (
		rounds  []*round
		lastRec *recorder
	)
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < seconds; i++ {
		// A traced run alternates untraced and traced rounds, so both
		// sides of trace.overhead_ratio see the same conditions.
		r, rec, err := runRound(w, in, traced && i%2 == 1)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		if rec != nil {
			lastRec = rec
		}
		fmt.Printf("round %d traced=%v cal=%.4fs,%.4fs setup=%.6fs phase=%.3fs ops=%d ops/s=%.0f space_amp=%.3f %s\n",
			i, r.traced, r.cal[0], r.cal[1], r.setupS, r.ph.wall.Seconds(), r.ph.ops, float64(r.ph.ops)/r.ph.wall.Seconds(),
			r.spaceAmp, r.fingerprint)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.ph.ops + r.checked
		res.Failed += r.failed + r.wrong + r.lost
	}
	if res.Failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, read a wrong value or lost an acked write\n", res.Failed, res.Attempted)
	}
	if w.clients == 1 && !w.async {
		// Single-client synchronous rounds are deterministic: every
		// round, traced or not, must charge the same virtual time and
		// do the same device and compaction work. A traced round that
		// differs means the seam is not transparent.
		for _, r := range rounds[1:] {
			if r.fingerprint != rounds[0].fingerprint {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: round fingerprints differ:\n  %s\n  %s\n", rounds[0].fingerprint, r.fingerprint)
			}
		}
	}

	var untraced, tracedRounds []*round
	for _, r := range rounds {
		if r.traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	var rows []row
	if traced {
		rows = layerMetrics(untraced, tracedRounds)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv.gz", w.name, seed))
		if err := lastRec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans of the last traced round: %s\n", path)
	} else {
		rows = endToEnd(untraced)
	}
	for _, m := range rows {
		fmt.Printf("%-42s %16.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// row is one reported metric with the number of samples behind it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

// endToEnd reports each metric as its median over the run's rounds, so
// one round disturbed by other work on the host does not move it.
func endToEnd(rounds []*round) []row {
	perRound := func(f func(r *round) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	// virt pools one round's virtual per-call latencies over clients
	// and operation types.
	virt := func(r *round) []int64 {
		var xs []int64
		for _, c := range r.ph.clients {
			for k := range c.virt {
				xs = append(xs, c.virt[k]...)
			}
		}
		return xs
	}
	n, samples := len(rounds), 0
	var cals []float64
	for _, r := range rounds {
		samples += int(r.ph.ops)
		cals = append(cals, r.cal[:]...)
	}
	// speed > 1 means the host ran the calibration slower than calRef.
	speed := median(cals) / calRef
	fmt.Printf("calibration median %.4fs of %d (reference %.4fs): speed factor %.4f\n", median(cals), len(cals), calRef, speed)
	return []row{
		{"ops_per_s", perRound(func(r *round) float64 { return float64(r.ph.ops) / r.ph.wall.Seconds() }) * speed, "ops/s", n},
		{"vus_per_op", perRound(func(r *round) float64 {
			return r.ph.vElapsed.Microseconds() / (float64(r.ph.ops) / float64(len(r.ph.clients)))
		}), "vus", n},
		{"vtail99_us", perRound(func(r *round) float64 { return tailMean(virt(r), 0.01) / 1e3 }), "vus", samples},
		{"write_amp", perRound(func(r *round) float64 {
			return float64(r.ph.after.Counters["ssd.bytes_written"]) / float64(r.ph.after.Counters["engine.user_bytes_written"])
		}), "ratio", n},
		{"space_amp", perRound(func(r *round) float64 { return r.spaceAmp }), "ratio", n},
		{"alloc_bytes_per_op", perRound(func(r *round) float64 {
			return float64(r.ph.mem1.TotalAlloc-r.ph.mem0.TotalAlloc) / float64(r.ph.ops)
		}), "B/op", n},
		{"peak_rss_mb", peakRSSMiB(), "MiB", 1},
		{"setup_s", perRound(func(r *round) float64 { return r.setupS }) / speed, "s", n},
	}
}

// percentile interpolates linearly between closest ranks; it sorts xs.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := p / 100 * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[i]) + (pos-float64(i))*float64(xs[i+1]-xs[i])
}

// tailMean is the mean of the largest share of xs (at least one
// value). Unlike a high percentile of virtual latencies, which are
// sums of a few fixed costs and so land on the same value run after
// run, it moves with how often and how long the slow calls stall.
func tailMean(xs []int64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(share * float64(len(xs))))
	var sum float64
	for _, x := range xs[len(xs)-k:] {
		sum += float64(x)
	}
	return sum / float64(k)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
