package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"noblsm/internal/engine"
	"noblsm/internal/ext4"
	"noblsm/internal/harness"
	"noblsm/internal/obs"
	"noblsm/internal/policy"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// Key and value shape shared by every workload: 16-byte keys and
// 1 KiB values, the paper's db_bench configuration.
const (
	keyLen  = 16
	valLen  = 1024
	hdrLen  = 16 // key index (8 bytes LE) + write round (8 bytes LE)
	bodyLen = valLen - hdrLen

	// geometryOps sizes the engine through harness.ScaledOptions: the
	// paper's 10M-op fill scaled to 100k ops (640 KiB memtables and
	// tables, 256 KiB block cache, ~160 minor compactions per fill).
	geometryOps = 100_000

	zipfS = 1.1
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "scan"}

// workload is one set of inputs the benchmark runs. Every round of a
// workload provisions a fresh store, so rounds are independent repeats
// of the same inputs.
type workload struct {
	name    string
	async   bool // Options.AsyncCompaction during the measured phase
	clients int
	keys    int // key space [0, keys)
	// preload writes every present key during set-up (in the
	// deterministic synchronous mode), then reopens the store with the
	// phase's compaction mode so background work is quiesced.
	preload bool
	// absentEvery > 0 leaves every key whose hash is 0 mod absentEvery
	// unwritten, so that share of point reads look up absent keys.
	absentEvery uint64
	ops         int // measured operations per round, across all clients
	getPct      int
	putPct      int // the rest of the mix is scans of 1..maxScan keys
	zipf        bool
	cacheBytes  int64 // block cache; 0 keeps ScaledOptions' value
	crashCheck  bool
}

const maxScan = 100

var workloads = []workload{
	{name: "fillrandom", clients: 1, keys: 100_000, ops: 100_000, putPct: 100, crashCheck: true},
	{name: "readrandom", async: true, clients: 2, keys: 100_000, preload: true, absentEvery: 10,
		ops: 400_000, getPct: 100},
	{name: "zipf-mixed", async: true, clients: 2, keys: 20_000, preload: true,
		ops: 200_000, getPct: 45, putPct: 45, zipf: true, cacheBytes: 32 << 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// baseOptions is the engine geometry every round of w opens with.
func (w workload) baseOptions() engine.Options {
	o := harness.ScaledOptions(geometryOps, valLen, harness.PaperTable64MB)
	if w.cacheBytes > 0 {
		o.BlockCacheBytes = w.cacheBytes
	}
	// Preloaded stores are filled synchronously and reopened with the
	// phase's mode (setup); fresh stores run the phase's mode from the
	// start.
	o.AsyncCompaction = w.async && !w.preload
	return o
}

// mix64 is SplitMix64's finalizer: a cheap bijective hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// op is one pre-generated client request.
type op struct {
	idx  uint32
	kind opKind
	n    uint8 // scan length
}

// input is everything a round needs, derived from the seed alone and
// generated before any timing starts.
type input struct {
	preload []uint32 // preload order (a seeded shuffle of the present keys)
	streams [][]op   // one request stream per client
	vals    *values
}

func makeInput(w workload, seed int64) input {
	in := input{vals: newValues(seed)}
	salt := mix64(uint64(seed))
	if w.preload {
		for i := 0; i < w.keys; i++ {
			if w.absentEvery == 0 || mix64(uint64(i)^salt)%w.absentEvery != 0 {
				in.preload = append(in.preload, uint32(i))
			}
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(in.preload), func(i, j int) { in.preload[i], in.preload[j] = in.preload[j], in.preload[i] })
	}
	per := w.ops / w.clients
	for c := 0; c < w.clients; c++ {
		r := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		var z *rand.Zipf
		if w.zipf {
			z = rand.NewZipf(r, zipfS, 1, uint64(w.keys-1))
		}
		s := make([]op, per)
		for j := range s {
			var o op
			switch x := r.Intn(100); {
			case x < w.getPct:
				o.kind = opGet
			case x < w.getPct+w.putPct:
				o.kind = opPut
			default:
				o.kind = opScan
				o.n = uint8(1 + r.Intn(maxScan))
			}
			if z != nil {
				// Hash ranks across the key space so the hot keys
				// are spread over many tables and blocks.
				o.idx = uint32((z.Uint64()*2654435761 + salt) % uint64(w.keys))
			} else {
				o.idx = uint32(r.Intn(w.keys))
			}
			s[j] = o
		}
		in.streams = append(in.streams, s)
	}
	return in
}

// values makes self-describing values: a header naming the key index
// and write round, then a body that is a slice of one random buffer
// generated in advance, at an offset derived from (key, round). A value
// read back can therefore be checked against the exact write it came
// from without storing any written data.
type values struct{ buf []byte }

func newValues(seed int64) *values {
	v := &values{buf: make([]byte, 1<<20)}
	rand.New(rand.NewSource(^seed)).Read(v.buf)
	return v
}

func (v *values) body(idx, round uint32) []byte {
	o := int(mix64(uint64(idx)<<32|uint64(round)) % uint64(len(v.buf)-bodyLen))
	return v.buf[o : o+bodyLen]
}

func (v *values) fill(dst []byte, idx, round uint32) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(idx))
	binary.LittleEndian.PutUint64(dst[8:], uint64(round))
	copy(dst[hdrLen:], v.body(idx, round))
}

// check returns the round b was written with, if b is a value written
// for key idx with a round in [1, maxRound].
func (v *values) check(b []byte, idx, maxRound uint32) (uint32, bool) {
	if len(b) != valLen || binary.LittleEndian.Uint64(b) != uint64(idx) {
		return 0, false
	}
	r := binary.LittleEndian.Uint64(b[8:])
	if r == 0 || r > uint64(maxRound) {
		return 0, false
	}
	return uint32(r), string(b[hdrLen:]) == string(v.body(idx, uint32(r)))
}

// putKey writes idx as 16 zero-padded decimal digits, so key order is
// index order.
func putKey(dst []byte, idx uint32) {
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = byte('0' + idx%10)
		idx /= 10
	}
}

func parseKey(b []byte) (uint32, bool) {
	if len(b) != keyLen {
		return 0, false
	}
	var x uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + uint64(c-'0')
	}
	return uint32(x), x <= 1<<32-1
}

// store is one provisioned NobLSM stack. mount is what the engine is
// opened on: the ext4 filesystem itself, or the timing seam over it in
// a traced round.
type store struct {
	fs    *ext4.FS
	mount vfs.FS
	db    *engine.DB
	opts  engine.Options
	reg   *obs.Registry
}

// newStore provisions a store. Untraced rounds use harness.NewStore
// unchanged. A traced round needs the engine mounted on the seam and
// telemetry on, which NewStore cannot express, so it assembles the
// same stack by hand; the fillrandom equality check proves the two
// stacks behave identically.
func newStore(tl *vclock.Timeline, base engine.Options, rec *recorder) (*store, error) {
	if rec == nil {
		st, err := harness.NewStore(tl, policy.NobLSM, base)
		if err != nil {
			return nil, err
		}
		return &store{fs: st.FS, mount: st.FS, db: st.DB, opts: st.Opts, reg: st.Metrics}, nil
	}
	opts, err := policy.Options(policy.NobLSM, base)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	opts.Telemetry = obs.NewTelemetry(reg, 0, 0)
	dev := ssd.NewObserved(harness.ScaledDevice(base), reg)
	cfg := ext4.DefaultConfig()
	cfg.CommitInterval = base.PollInterval
	fs := ext4.NewObserved(cfg, dev, reg, nil)
	mount := &seamFS{fs: fs, rec: rec}
	db, err := engine.Open(tl, mount, opts)
	if err != nil {
		return nil, err
	}
	return &store{fs: fs, mount: mount, db: db, opts: opts, reg: reg}, nil
}

// sampleEvery is how many of client 0's operations pass between two
// samples of the store's footprint. Sampling by operation count keeps
// the single-client rounds deterministic.
const sampleEvery = 2000

// footprint samples, during a phase, the bytes on the filesystem per
// live user byte. A single end-of-phase reading would depend on where
// background compaction happens to stand.
type footprint struct {
	fs    *ext4.FS
	live  atomic.Int64 // keys written at least once
	space []float64
}

func newFootprint(fs *ext4.FS, live int) *footprint {
	f := &footprint{fs: fs}
	f.live.Store(int64(live))
	return f
}

func (f *footprint) sample() {
	// A timeline at instant 0 makes these reads free of side effects:
	// ext4 runs no writeback, commits or stalls on its behalf.
	tl := vclock.NewTimeline(0)
	var total int64
	for _, name := range f.fs.List(tl) {
		if n, err := f.fs.Size(tl, name); err == nil {
			total += n
		}
	}
	f.space = append(f.space, float64(total)/float64(f.live.Load()*(keyLen+valLen)))
}

// setup provisions the round's store and, for preloaded workloads,
// writes every present key in the seeded order, waits out background
// work and reopens the store with the phase's compaction mode.
func setup(w workload, in input, tl *vclock.Timeline, rec *recorder) (*store, error) {
	s, err := newStore(tl, w.baseOptions(), rec)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	if !w.preload {
		return s, nil
	}
	key, val := make([]byte, keyLen), make([]byte, valLen)
	for _, idx := range in.preload {
		putKey(key, idx)
		in.vals.fill(val, idx, 1)
		if err := s.db.Put(tl, key, val); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	s.db.WaitBackground(tl)
	if err := s.db.Close(tl); err != nil {
		return nil, fmt.Errorf("preload close: %w", err)
	}
	s.opts.AsyncCompaction = w.async
	if s.db, err = engine.Open(tl, s.mount, s.opts); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	return s, nil
}

// client is one closed-loop caller: it issues its next request only
// after the previous one returned. It owns its virtual timeline, which
// is how the seam tells its calls from background work.
type client struct {
	id   int
	tl   *vclock.Timeline
	ops  []op
	wall [numKinds][]int64 // wall ns around each engine call
	virt [numKinds][]int64 // virtual ns the call charged to tl

	callNs, loopNs int64
	failed, wrong  int64
	scanned        int64
	acked          []uint32 // last acked round per key (single-writer workloads)
	fp             *footprint
	sampler        bool // client 0 samples the footprint

	// Traced rounds only: this client's engine spans and the fg vfs
	// spans nested in them; cur indexes the open engine span.
	spans []span
	cur   int32
}

func newClient(id int, start vclock.Time, ops []op, traced bool) *client {
	c := &client{id: id, tl: vclock.NewTimeline(start), ops: ops, cur: -1}
	var n [numKinds]int
	for _, o := range ops {
		n[o.kind]++
	}
	for k := range c.wall {
		c.wall[k] = make([]int64, 0, n[k])
		c.virt[k] = make([]int64, 0, n[k])
	}
	if traced {
		c.spans = make([]span, 0, 4*len(ops))
	}
	return c
}

// run issues the client's stream. Keys and values are built from the
// pre-generated stream and the shared value buffer outside the timed
// calls; read results are checked after each call returns (for scans,
// between Next calls, which the scan's timing therefore includes).
// issued[k] is the newest write round issued for key k (0: never
// written); a value read back must carry a round no newer.
func (c *client) run(db *engine.DB, in input, issued []atomic.Uint32, rec *recorder) {
	key, val := make([]byte, keyLen), make([]byte, valLen)
	loop := time.Now()
	for i, o := range c.ops {
		putKey(key, o.idx)
		var round uint32
		if o.kind == opPut {
			round = issued[o.idx].Add(1)
			in.vals.fill(val, o.idx, round)
			if round == 1 {
				c.fp.live.Add(1)
			}
		}
		if rec != nil {
			c.cur = int32(len(c.spans))
			c.spans = append(c.spans, span{name: uint8(o.kind), op: int32(i), parent: -1})
		}
		v0 := c.tl.Now()
		t0 := time.Now()
		var (
			got    []byte
			err    error
			absent bool
		)
		switch o.kind {
		case opPut:
			err = db.Put(c.tl, key, val)
		case opGet:
			got, err = db.Get(c.tl, key)
			if errors.Is(err, engine.ErrNotFound) {
				absent, err = true, nil
			}
		case opScan:
			err = c.scan(db, in, issued, key, int(o.n))
		}
		t1 := time.Now()
		d := t1.Sub(t0).Nanoseconds()
		c.wall[o.kind] = append(c.wall[o.kind], d)
		c.virt[o.kind] = append(c.virt[o.kind], int64(c.tl.Now().Sub(v0)))
		c.callNs += d
		if rec != nil {
			sp := &c.spans[c.cur]
			sp.start, sp.end = rec.since(t0), rec.since(t1)
			if absent {
				sp.flag = 1
			}
			c.cur = -1
		}
		switch {
		case err != nil:
			c.failed++
		case o.kind == opPut:
			if c.acked != nil {
				c.acked[o.idx] = round
			}
		case o.kind == opGet:
			maxRound := issued[o.idx].Load()
			if absent {
				if maxRound != 0 {
					c.wrong++
				}
			} else if _, ok := in.vals.check(got, o.idx, maxRound); !ok {
				c.wrong++
			}
		}
		if c.sampler && (i+1)%sampleEvery == 0 {
			c.fp.sample()
		}
	}
	c.loopNs = time.Since(loop).Nanoseconds()
}

// scan opens an iterator, seeks to start and reads up to n keys,
// checking that keys strictly increase and every value is valid.
func (c *client) scan(db *engine.DB, in input, issued []atomic.Uint32, start []byte, n int) error {
	it, err := db.NewIterator(c.tl)
	if err != nil {
		return err
	}
	it.Seek(start)
	prev := int64(-1)
	for ; n > 0 && it.Valid(); n-- {
		idx, ok := parseKey(it.Key())
		if !ok || int64(idx) <= prev || int(idx) >= len(issued) {
			c.wrong++
		} else if _, ok := in.vals.check(it.Value(), idx, issued[idx].Load()); !ok {
			c.wrong++
		}
		prev = int64(idx)
		c.scanned++
		it.Next()
	}
	err = it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return err
}

// phase is what one measured phase produced.
type phase struct {
	clients  []*client
	space    []float64 // footprint samples
	wall     time.Duration
	ops      int64
	vElapsed vclock.Duration
	before   obs.Snapshot
	after    obs.Snapshot
	mem0     runtime.MemStats
	mem1     runtime.MemStats
}

func runPhase(w workload, s *store, in input, issued []atomic.Uint32, start vclock.Time, rec *recorder) phase {
	p := phase{}
	fp := newFootprint(s.fs, len(in.preload))
	for c := 0; c < w.clients; c++ {
		cl := newClient(c, start, in.streams[c], rec != nil)
		cl.fp, cl.sampler = fp, c == 0
		if w.crashCheck {
			cl.acked = make([]uint32, w.keys)
		}
		p.clients = append(p.clients, cl)
		p.ops += int64(len(cl.ops))
	}
	if rec != nil {
		rec.begin(p.clients)
	}
	p.before = s.reg.Snapshot()
	runtime.ReadMemStats(&p.mem0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(s.db, in, issued, rec)
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	fp.sample()
	p.space = fp.space
	fp.fs = nil // the clients outlive the store; let its files be collected
	runtime.ReadMemStats(&p.mem1)
	p.after = s.reg.Snapshot()
	if rec != nil {
		rec.end()
	}
	var end vclock.Time
	for _, c := range p.clients {
		end = vclock.Max(end, c.tl.Now())
	}
	p.vElapsed = end.Sub(start)
	return p
}

// crashCheck waits out background work, advances virtual time past
// the durability horizon, cuts power, reopens the store on the bare
// filesystem and reads back every key's last acked value. It returns
// keys checked, keys lost (missing or an older round) and keys holding
// a value never written.
func crashCheck(s *store, tl *vclock.Timeline, in input, acked []uint32) (checked, lost, wrong int64, err error) {
	s.db.WaitBackground(tl)
	if err := settle(s.fs, tl, s.opts.PollInterval); err != nil {
		return 0, 0, 0, err
	}
	s.fs.Crash(tl.Now())
	opts := s.opts
	opts.Telemetry = nil
	db, err := engine.Open(tl, s.fs, opts)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	key := make([]byte, keyLen)
	for idx, want := range acked {
		if want == 0 {
			continue
		}
		checked++
		putKey(key, uint32(idx))
		got, gerr := db.Get(tl, key)
		switch {
		case errors.Is(gerr, engine.ErrNotFound):
			lost++
		case gerr != nil:
			err = fmt.Errorf("read after crash: %w", gerr)
		default:
			r, ok := in.vals.check(got, uint32(idx), want)
			if !ok {
				wrong++
			} else if r != want {
				lost++
			}
		}
	}
	if cerr := db.Close(tl); err == nil {
		err = cerr
	}
	return checked, lost, wrong, err
}

// settle advances tl one journal commit interval at a time until every
// file's committed size equals its size. That instant is the run's
// durability horizon: with the device saturated by compaction writes,
// background writeback lags the acks by far more than a fixed number
// of commit intervals.
func settle(fs *ext4.FS, tl *vclock.Timeline, interval vclock.Duration) error {
	for i := 0; i < 1_000_000; i++ {
		durable := true
		// List runs due writeback and journal commits up to tl.
		for _, name := range fs.List(tl) {
			if n, err := fs.Size(tl, name); err == nil && fs.DurableSize(name) != n {
				durable = false
				break
			}
		}
		if durable {
			return nil
		}
		tl.Advance(interval)
	}
	return fmt.Errorf("files not durable after a million commit intervals")
}

// shadowBytes sums the table bytes no live version references:
// NobLSM's retained shadow predecessors and not-yet-deleted obsolete
// tables.
func shadowBytes(s *store, tl *vclock.Timeline) int64 {
	live := make(map[uint64]bool)
	for _, files := range s.db.Version().Files {
		for _, f := range files {
			live[f.Number] = true
		}
	}
	var shadow int64
	for _, name := range s.fs.List(tl) {
		kind, num, ok := engine.ParseFileName(name)
		if !ok || kind != engine.KindTable || live[num] {
			continue
		}
		if n, err := s.fs.Size(tl, name); err == nil {
			shadow += n
		}
	}
	return shadow
}
