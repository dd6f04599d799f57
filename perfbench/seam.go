package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"noblsm/internal/ext4"
	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// The traced round times the calls that cross the engine's seam to the
// filesystem from outside the program: seamFS sits between the engine
// and ext4 and forwards every call, including the optional interfaces
// the engine type-asserts for (core.Syscalls for NobLSM's
// check_commit/is_committed, vfs.Linker, and vfs.ViewReader on files).
// Dropping one of them would silently change behaviour — NobLSM mode
// refuses to open and table reads lose zero-copy views — which the
// fillrandom equality check would catch.

// vfs span operations and file classes.
const (
	vfsAppend = iota
	vfsSync
	vfsReadAt // ReadAt and ReadView
	numVfsOps
)

const (
	clsWAL = iota
	clsTable
	clsManifest
	clsOther
	numClasses
)

var (
	vfsOpNames    = [numVfsOps]string{"append", "sync", "readat"}
	vfsClassNames = [numClasses]string{"wal", "table", "manifest", "other"}
)

func classOf(name string) int {
	switch vfs.Classify(name) {
	case vfs.ClassWAL:
		return clsWAL
	case vfs.ClassTable:
		return clsTable
	case vfs.ClassManifest:
		return clsManifest
	}
	return clsOther
}

// span is one timed call. Engine spans (name < numKinds) belong to a
// client; vfs spans have name numKinds + op*numClasses + class and
// are either nested in a client's open engine span (fg) or issued on
// any other timeline (bg: flush and compaction).
type span struct {
	start, end int64 // wall ns since the recorder's origin
	op         int32 // index of the request in its client's stream; -1 for bg
	parent     int32 // index of the enclosing engine span in the client's list; -1 for none
	bytes      int32
	name       uint8
	flag       uint8 // engine get: 1 = key absent
}

func vfsName(op, class int) uint8 { return uint8(int(numKinds) + op*numClasses + class) }

func spanName(n uint8) string {
	if n < uint8(numKinds) {
		return "engine." + kindNames[n]
	}
	v := int(n) - int(numKinds)
	return "vfs." + vfsOpNames[v/numClasses] + "." + vfsClassNames[v%numClasses]
}

// recorder keeps a traced phase's spans in memory. Clients append to
// their own lists from their own goroutines; spans of other timelines
// go to a shared list under a mutex.
type recorder struct {
	origin  time.Time
	on      atomic.Bool
	clients []*client // set before the phase starts, read-only during it

	mu sync.Mutex
	bg []span

	walCreates atomic.Int64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

func (r *recorder) begin(clients []*client) {
	r.clients = clients
	r.bg = r.bg[:0]
	r.walCreates.Store(0)
	r.on.Store(true)
}

func (r *recorder) end() { r.on.Store(false) }

func (r *recorder) note(tl *vclock.Timeline, op, class, bytes int, t0, t1 time.Time) {
	sp := span{start: r.since(t0), end: r.since(t1), op: -1, parent: -1, bytes: int32(bytes), name: vfsName(op, class)}
	for _, c := range r.clients {
		if c.tl == tl {
			sp.parent = c.cur
			if c.cur >= 0 {
				sp.op = c.spans[c.cur].op
			}
			c.spans = append(c.spans, sp)
			return
		}
	}
	r.mu.Lock()
	r.bg = append(r.bg, sp)
	r.mu.Unlock()
}

// write stores the phase's spans as gzipped CSV, one row per span with
// a run-wide id; parent refers to that id.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,client,op,name,side,start_ns,end_ns,bytes,absent")
	id := 0
	row := func(sp span, base int, client int, side string) {
		parent := -1
		if sp.parent >= 0 {
			parent = base + int(sp.parent)
		}
		fmt.Fprintf(bw, "%d,%d,%d,%d,%s,%s,%d,%d,%d,%d\n", id, parent, client, sp.op,
			spanName(sp.name), side, sp.start, sp.end, sp.bytes, sp.flag)
		id++
	}
	for _, c := range r.clients {
		base := id
		for _, sp := range c.spans {
			side := "fg"
			if sp.name < uint8(numKinds) {
				side = "client"
			}
			row(sp, base, c.id, side)
		}
	}
	for _, sp := range r.bg {
		row(sp, id, -1, "bg")
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seamFS is the pass-through timing filesystem.
type seamFS struct {
	fs  *ext4.FS
	rec *recorder
}

func (s *seamFS) wrap(f vfs.File, name string) vfs.File {
	vr, _ := f.(vfs.ViewReader)
	return &seamFile{f: f, vr: vr, rec: s.rec, class: classOf(name)}
}

func (s *seamFS) Create(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := s.fs.Create(tl, name)
	if err != nil {
		return nil, err
	}
	if s.rec.on.Load() && vfs.Classify(name) == vfs.ClassWAL {
		s.rec.walCreates.Add(1)
	}
	return s.wrap(f, name), nil
}

func (s *seamFS) Open(tl *vclock.Timeline, name string) (vfs.File, error) {
	f, err := s.fs.Open(tl, name)
	if err != nil {
		return nil, err
	}
	return s.wrap(f, name), nil
}

func (s *seamFS) ReadFile(tl *vclock.Timeline, name string) ([]byte, error) {
	return s.fs.ReadFile(tl, name)
}

func (s *seamFS) WriteFile(tl *vclock.Timeline, name string, data []byte) error {
	return s.fs.WriteFile(tl, name, data)
}

func (s *seamFS) Remove(tl *vclock.Timeline, name string) error { return s.fs.Remove(tl, name) }

func (s *seamFS) Rename(tl *vclock.Timeline, oldName, newName string) error {
	return s.fs.Rename(tl, oldName, newName)
}

func (s *seamFS) Exists(tl *vclock.Timeline, name string) bool { return s.fs.Exists(tl, name) }
func (s *seamFS) List(tl *vclock.Timeline) []string            { return s.fs.List(tl) }

func (s *seamFS) Size(tl *vclock.Timeline, name string) (int64, error) {
	return s.fs.Size(tl, name)
}

func (s *seamFS) SyncDir(tl *vclock.Timeline) error { return s.fs.SyncDir(tl) }

// Link forwards vfs.Linker.
func (s *seamFS) Link(tl *vclock.Timeline, oldName, newName string) error {
	return s.fs.Link(tl, oldName, newName)
}

// CheckCommit, IsCommitted and CommittedSize forward core.Syscalls.
func (s *seamFS) CheckCommit(tl *vclock.Timeline, inos ...int64) { s.fs.CheckCommit(tl, inos...) }
func (s *seamFS) IsCommitted(tl *vclock.Timeline, ino int64) bool {
	return s.fs.IsCommitted(tl, ino)
}
func (s *seamFS) CommittedSize(tl *vclock.Timeline, ino int64) int64 {
	return s.fs.CommittedSize(tl, ino)
}

type seamFile struct {
	f     vfs.File
	vr    vfs.ViewReader // nil when the inner file has no views
	rec   *recorder
	class int
}

func (f *seamFile) Append(tl *vclock.Timeline, p []byte) error {
	if !f.rec.on.Load() {
		return f.f.Append(tl, p)
	}
	t0 := time.Now()
	err := f.f.Append(tl, p)
	f.rec.note(tl, vfsAppend, f.class, len(p), t0, time.Now())
	return err
}

func (f *seamFile) ReadAt(tl *vclock.Timeline, p []byte, off int64) (int, error) {
	if !f.rec.on.Load() {
		return f.f.ReadAt(tl, p, off)
	}
	t0 := time.Now()
	n, err := f.f.ReadAt(tl, p, off)
	f.rec.note(tl, vfsReadAt, f.class, n, t0, time.Now())
	return n, err
}

// ReadView forwards vfs.ViewReader.
func (f *seamFile) ReadView(tl *vclock.Timeline, n int, off int64) ([]byte, bool, error) {
	if f.vr == nil {
		return nil, false, nil
	}
	if !f.rec.on.Load() {
		return f.vr.ReadView(tl, n, off)
	}
	t0 := time.Now()
	p, ok, err := f.vr.ReadView(tl, n, off)
	if ok || err != nil {
		// A declined view is followed by a ReadAt, which is noted.
		f.rec.note(tl, vfsReadAt, f.class, len(p), t0, time.Now())
	}
	return p, ok, err
}

func (f *seamFile) Sync(tl *vclock.Timeline) error {
	if !f.rec.on.Load() {
		return f.f.Sync(tl)
	}
	t0 := time.Now()
	err := f.f.Sync(tl)
	f.rec.note(tl, vfsSync, f.class, 0, t0, time.Now())
	return err
}

func (f *seamFile) Close(tl *vclock.Timeline) error { return f.f.Close(tl) }
func (f *seamFile) Size() int64                     { return f.f.Size() }
func (f *seamFile) Ino() int64                      { return f.f.Ino() }
